"""Deterministic corpus splitting by seeded hashing with exact quotas.

Every split unit (a line or a document) gets a keyed 64-bit hash; units are
ranked by (hash, key) and the first ceil(ratio * n) go to subset A. The
assignment depends only on (seed, unit key), never on processing order, so
any number of workers produces the identical partition, and the quota is
exact: 1000 documents at ratio 0.6 give 600/400 every time.

The ranking keeps one unsigned 64-bit int per item and never sorts them
all: the hashes are grouped by their top bits, and only the group that
holds the cut is sorted. Keys are built and compared only for items whose
hash another item shares: a repeated key or a true collision. The sides
come back as ascending positions into the input, one 64-bit int per item.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Sequence

from .dedup import blake2b

_KEY_SEP = "\x1f"


def _keyed_blake2b(seed: int):
    """The keyed 8-byte BLAKE2b state of seed, before any message byte."""
    return blake2b(key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"), digest_size=8)


def seeded_hash64(seed: int, data: str) -> int:
    """Stable keyed 64-bit hash; the single source of randomness in the toolkit."""
    h = _keyed_blake2b(seed)
    h.update(data.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def derive_subseed(seed: int, name: str) -> int:
    """Named sub-seed so one top-level seed reproduces every stage."""
    return seeded_hash64(seed, f"subseed{_KEY_SEP}{name}")


class SplitUnit(enum.Enum):
    LINE = "line"
    DOCUMENT = "document"


@dataclass(frozen=True)
class SplitConfig:
    ratio: float  # fraction of units assigned to subset A
    seed: int
    unit: SplitUnit = SplitUnit.DOCUMENT

    def validate(self) -> list[str]:
        problems = []
        if not 0.0 <= self.ratio <= 1.0:
            problems.append(f"split ratio must be in [0, 1], got {self.ratio}")
        return problems


def split_quota(ratio: float, n_units: int) -> int:
    """ceil(ratio * n) in exact arithmetic, so 0.6 of 1000 is 600, not 601.

    The float is first snapped to the decimal the caller wrote (0.4 means
    2/5, not the binary neighbour 0.40000000000000002), then the product is
    taken as an exact rational.
    """
    return math.ceil(Fraction(ratio).limit_denominator(10**9) * n_units)


def _hash_keys(seed: int, keys: Iterable[str]) -> array:
    """seeded_hash64 of each key in order, one unsigned 64-bit int apiece."""
    prefix = _keyed_blake2b(seed)
    digests = bytearray()
    for key in keys:
        h = prefix.copy()
        h.update(key.encode("utf-8"))
        digests += h.digest()
    hashes = array("Q", digests)
    if sys.byteorder == "little":
        hashes.byteswap()  # the digests are big-endian
    return hashes


def _cut(hashes: array, key_at: Callable[[int], str], ratio: float) -> tuple[int, frozenset[str]]:
    """Rank the distinct keys by (hash, key) and cut after ceil(ratio * n_distinct).

    Item i goes to subset A iff hashes[i] < bound, or hashes[i] == bound and
    its key is in the returned set, which is empty unless the cut splits the
    keys of one shared hash. key_at(i) is called only for items whose hash
    another item shares: a repeated key or a true collision.

    Nothing sorts every hash. One pass groups the hashes by their top bits,
    about a hundred to a bucket and at most 65,536 buckets; equal hashes are
    found bucket by bucket, and only the bucket that holds the cut is sorted.
    """
    shift = 64 - min(16, max(0, len(hashes).bit_length() - 7))
    buckets = [array("Q") for _ in range(1 << (64 - shift))]
    append = [bucket.append for bucket in buckets]
    for h in hashes:
        append[h >> shift](h)
    # Distinct hashes per bucket, then distinct keys once shared hashes count theirs.
    sizes = [len(set(bucket)) for bucket in buckets]
    keys_at: dict[int, set[str]] = {}
    for bucket, size in zip(buckets, sizes):
        if size < len(bucket):
            keys_at.update((h, set()) for h, count in Counter(bucket).items() if count > 1)
    if keys_at:
        for i in compress(range(len(hashes)), map(keys_at.__contains__, hashes)):
            keys_at[hashes[i]].add(key_at(i))
        for h, keys in keys_at.items():
            sizes[h >> shift] += len(keys) - 1
    quota = split_quota(ratio, sum(sizes))
    if quota == 0:
        return 0, frozenset()
    below = 0  # distinct keys ranked below the bucket, then below the hash
    for bucket, size in zip(buckets, sizes):
        if quota <= below + size:
            break
        below += size
    for h in sorted(set(bucket)):
        keys = keys_at.get(h, ())
        width = len(keys) or 1  # distinct keys at h
        if quota <= below + width:
            taken = sorted(keys)[: quota - below]
            return (h, frozenset(taken)) if len(taken) < len(keys) else (h + 1, frozenset())
        below += width
    raise AssertionError("the quota exceeds the distinct keys")


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _sides(on_a: bytes | bytearray) -> tuple[array, array]:
    """The ascending positions flagged 1 and those flagged 0."""
    positions = range(len(on_a))
    return array("Q", compress(positions, on_a)), array("Q", compress(positions, on_a.translate(_FLIP)))


def _partition(keys: Iterable[str], key_at: Callable[[int], str], cfg: SplitConfig) -> tuple[array, array]:
    """Split the items whose keys are given in order, and again one at a time
    by key_at(i), which is asked only at shared hashes, into the positions
    of each side."""
    hashes = _hash_keys(cfg.seed, keys)
    bound, keys_at_bound = _cut(hashes, key_at, cfg.ratio)
    on_a = bytearray(map(bound.__gt__, hashes))
    if keys_at_bound:
        for i in compress(range(len(hashes)), map(bound.__eq__, hashes)):
            on_a[i] = key_at(i) in keys_at_bound
    del hashes
    return _sides(on_a)


def assign_split(keys: Iterable[str], cfg: SplitConfig) -> set[str]:
    """Return the unit keys assigned to subset A.

    Pure function of (seed, distinct key set); feeding the keys in any order
    or from any number of shards yields the same set.
    """
    keys = list(keys)
    return set(map(keys.__getitem__, _partition(keys, keys.__getitem__, cfg)[0]))


def _line_key(item) -> str:
    """An item's unit key under unit=LINE: its source and physical line."""
    return f"{item.source_id}{_KEY_SEP}{item.line_no}"


def split_corpus(items: Sequence, cfg: SplitConfig) -> tuple[array, array]:
    """Partition items with a source_id and a line_no into sides A and B,
    each given as the ascending positions of its items in items; with
    unit=DOCUMENT all items sharing a source_id move together.

    items is read in order once to hash it, and indexed only at shared
    hashes, so a lazy Sequence works and no item outlives its hashing."""
    if cfg.unit is SplitUnit.DOCUMENT:
        # Rank each source once; its items follow it.
        side_a = assign_split(dict.fromkeys(r.source_id for r in items), cfg)
        return _sides(bytes(r.source_id in side_a for r in items))
    return _partition(map(_line_key, items), lambda i: _line_key(items[i]), cfg)


def split_articles(
    articles: Sequence[list[str]],
    cfg: SplitConfig,
) -> tuple[list[list[str]], list[list[str]]]:
    """Partition whole articles (each one split unit, keyed by its position)."""
    def key_at(i: int) -> str:
        return f"article{_KEY_SEP}{i}"

    a, b = _partition(map(key_at, range(len(articles))), key_at, cfg)
    return list(map(articles.__getitem__, a)), list(map(articles.__getitem__, b))
