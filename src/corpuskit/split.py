"""Deterministic corpus splitting by seeded hashing with exact quotas.

Every split unit (a line or a document) gets a keyed 64-bit hash; units are
ranked by (hash, key) and the first ceil(ratio * n) go to subset A. The
assignment depends only on (seed, unit key), never on processing order, so
any number of workers produces the identical partition, and the quota is
exact: 1000 documents at ratio 0.6 give 600/400 every time.

The ranking keeps one unsigned 64-bit int per item and compares hashes as
ints. Keys are built and compared only for items whose hash another item
shares: a repeated key or a true collision.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from operator import eq
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

    Item i goes to subset A iff hashes[i] < cut, or hashes[i] == cut and its
    key is in the returned set. key_at(i) is called only for items whose hash
    another item shares, and for one item when the cut falls on a lone hash.
    """
    ranked = sorted(hashes)
    shared = set(compress(ranked, map(eq, ranked, islice(ranked, 1, None))))
    keys_at: dict[int, set[str]] = {}
    if shared:
        for i, h in enumerate(hashes):
            if h in shared:
                keys_at.setdefault(h, set()).add(key_at(i))
        ranked = list(dict.fromkeys(ranked))
    quota = split_quota(ratio, len(ranked) + sum(len(keys) - 1 for keys in keys_at.values()))
    if quota == 0:
        return 0, frozenset()
    extra = 0  # keys beyond the first at each shared hash passed so far
    for h in sorted(keys_at):
        before = bisect_left(ranked, h) + extra  # distinct keys ranked below h
        if quota <= before:
            break
        keys = keys_at[h]
        if quota <= before + len(keys):
            return h, frozenset(sorted(keys)[: quota - before])
        extra += len(keys) - 1
    h = ranked[quota - 1 - extra]
    return h, frozenset((key_at(hashes.index(h)),))


def assign_split(keys: Iterable[str], cfg: SplitConfig) -> set[str]:
    """Return the unit keys assigned to subset A.

    Pure function of (seed, distinct key set); feeding the keys in any order
    or from any number of shards yields the same set.
    """
    keys = list(keys)
    return set(_partition(keys, keys, keys.__getitem__, cfg)[0])


def _line_key(item) -> str:
    """An item's unit key under unit=LINE: its source and physical line."""
    return f"{item.source_id}{_KEY_SEP}{item.line_no}"


def _partition(items: Sequence, keys: Iterable[str], key_at: Callable[[int], str],
               cfg: SplitConfig) -> tuple[list, list]:
    """Split items by the ranking of their keys, given in item order and
    again one at a time by key_at(i), which is asked only at shared hashes."""
    hashes = _hash_keys(cfg.seed, keys)
    cut, at_cut = _cut(hashes, key_at, cfg.ratio)
    a, b = [], []
    for i, h in enumerate(hashes):
        (a if h < cut or (h == cut and key_at(i) in at_cut) else b).append(items[i])
    return a, b


def split_corpus(items: Iterable, cfg: SplitConfig) -> tuple[list, list]:
    """Partition items with a source_id and a line_no into (A, B); with
    unit=DOCUMENT all items sharing a source_id move together. Each side
    holds the given items, in input order."""
    items = list(items)
    if cfg.unit is SplitUnit.DOCUMENT:
        # Rank each source once; its items follow it.
        side_a = assign_split(dict.fromkeys(r.source_id for r in items), cfg)
        return [r for r in items if r.source_id in side_a], [r for r in items if r.source_id not in side_a]
    return _partition(items, map(_line_key, items), lambda i: _line_key(items[i]), cfg)


def split_articles(
    articles: Sequence[list[str]],
    cfg: SplitConfig,
) -> tuple[list[list[str]], list[list[str]]]:
    """Partition whole articles (each one split unit, keyed by its position)."""
    def key_at(i: int) -> str:
        return f"article{_KEY_SEP}{i}"

    return _partition(articles, map(key_at, range(len(articles))), key_at, cfg)
