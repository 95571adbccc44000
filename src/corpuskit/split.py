"""Deterministic corpus splitting by seeded hashing with exact quotas.

Every split unit (a line or a document) gets a keyed 64-bit hash; units are
ranked by (hash, key) and the first ceil(ratio * n) go to subset A. The
assignment depends only on (seed, unit key), never on processing order, so
any number of workers produces the identical partition, and the quota is
exact: 1000 documents at ratio 0.6 give 600/400 every time.

The ranking keeps one unsigned 64-bit int per item and never sorts them
all: the hashes are grouped by their top bits, and only the group that
holds the cut is sorted. The keys are made as they are hashed, and made
again, in the same order, only when some hash is shared: a repeated key or
a true collision. The sides come back as ascending positions into the
input, one 64-bit int per item.
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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


def _cut(hashes: array, keys: Callable[[], Iterable[str]], ratio: float) -> tuple[int, frozenset[str]]:
    """Rank the distinct keys by (hash, key) and cut after ceil(ratio * n_distinct).

    Item i goes to subset A iff hashes[i] < bound, or hashes[i] == bound and
    its key is in the returned set, which is empty unless the cut splits the
    keys of one shared hash. keys() gives every item's key in order, and is
    called only when some hash is shared: a repeated key or a true collision.

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
        for h, key in zip(hashes, keys(), strict=True):
            if h in keys_at:
                keys_at[h].add(key)
        for h, shared in keys_at.items():
            sizes[h >> shift] += len(shared) - 1
    quota = split_quota(ratio, sum(sizes))
    if quota == 0:
        return 0, frozenset()
    below = 0  # distinct keys ranked below the bucket, then below the hash
    for bucket, size in zip(buckets, sizes):
        if quota <= below + size:
            break
        below += size
    for h in sorted(set(bucket)):
        shared = keys_at.get(h, ())
        width = len(shared) or 1  # distinct keys at h
        if quota <= below + width:
            taken = sorted(shared)[: quota - below]
            return (h, frozenset(taken)) if len(taken) < len(shared) else (h + 1, frozenset())
        below += width
    raise AssertionError("the quota exceeds the distinct keys")


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _sides(on_a: bytes | bytearray) -> tuple[array, array]:
    """The ascending positions flagged 1 and those flagged 0."""
    positions = range(len(on_a))
    return array("Q", compress(positions, on_a)), array("Q", compress(positions, on_a.translate(_FLIP)))


def _partition(keys: Callable[[], Iterable[str]], cfg: SplitConfig) -> tuple[array, array]:
    """Split the items whose keys keys() gives in order into the positions
    of each side. keys() is called once to hash them, and again only when
    some hash is shared; a second reading of another length is an error."""
    hashes = _hash_keys(cfg.seed, keys())
    bound, keys_at_bound = _cut(hashes, keys, cfg.ratio)
    on_a = bytearray(map(bound.__gt__, hashes))
    if keys_at_bound:
        for i, (h, key) in enumerate(zip(hashes, keys(), strict=True)):
            if h == bound:
                on_a[i] = key in keys_at_bound
    del hashes
    return _sides(on_a)


def assign_split(keys: Iterable[str], cfg: SplitConfig) -> set[str]:
    """Return the unit keys assigned to subset A.

    Pure function of (seed, distinct key set); feeding the keys in any order
    or from any number of shards yields the same set.
    """
    keys = list(keys)
    return set(map(keys.__getitem__, _partition(lambda: keys, cfg)[0]))


def split_corpus(line_nos: Mapping[str, Sequence[int]], cfg: SplitConfig) -> tuple[array, array]:
    """Partition the lines of each source, given as its line numbers, into
    sides A and B. A side is the ascending positions of its lines with the
    sources' lines laid end to end in mapping order. With unit=LINE a line
    is keyed by its source and line number, so a repeated line number goes
    to one side; with unit=DOCUMENT each source that has a line is one unit
    and its lines move together."""
    if cfg.unit is SplitUnit.DOCUMENT:
        side_a = assign_split((source for source, nos in line_nos.items() if nos), cfg)
        return _sides(b"".join(bytes([source in side_a]) * len(nos) for source, nos in line_nos.items()))

    def keys() -> Iterator[str]:
        return (f"{source}{_KEY_SEP}{n}" for source, nos in line_nos.items() for n in nos)

    return _partition(keys, cfg)


def split_articles(
    articles: Sequence[list[str]],
    cfg: SplitConfig,
) -> tuple[list[list[str]], list[list[str]]]:
    """Partition whole articles (each one split unit, keyed by its position)."""
    def keys() -> Iterator[str]:
        return (f"article{_KEY_SEP}{i}" for i in range(len(articles)))

    a, b = _partition(keys, cfg)
    return list(map(articles.__getitem__, a)), list(map(articles.__getitem__, b))
