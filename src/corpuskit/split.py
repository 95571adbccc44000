"""Deterministic corpus splitting by seeded hashing with exact quotas.

Every split unit (a line or a document) gets a keyed 64-bit hash; units are
ranked by (hash, key) and the first ceil(ratio * n) go to subset A. The
assignment depends only on (seed, unit key), never on processing order, so
any number of workers produces the identical partition, and the quota is
exact: 1000 documents at ratio 0.6 give 600/400 every time.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import SentenceRecord

_KEY_SEP = "\x1f"


def seeded_hash64(seed: int, data: str) -> int:
    """Stable keyed 64-bit hash; the single source of randomness in the toolkit."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    digest = hashlib.blake2b(data.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


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


def assign_split(keys: Iterable[str], cfg: SplitConfig) -> set[str]:
    """Return the unit keys assigned to subset A.

    Pure function of (seed, distinct key set); feeding the keys in any order
    or from any number of shards yields the same set.
    """
    distinct = set(keys)
    ranked = sorted(distinct, key=lambda k: (seeded_hash64(cfg.seed, k), k))
    return set(ranked[: split_quota(cfg.ratio, len(ranked))])


def record_unit_key(rec: SentenceRecord, unit: SplitUnit) -> str:
    if unit is SplitUnit.DOCUMENT:
        return rec.source_id
    return f"{rec.source_id}{_KEY_SEP}{rec.line_no}"


def _partition(items: Sequence, keys: list[str], cfg: SplitConfig) -> tuple[list, list]:
    side_a = assign_split(keys, cfg)
    a = [item for item, key in zip(items, keys) if key in side_a]
    b = [item for item, key in zip(items, keys) if key not in side_a]
    return a, b


def split_corpus(
    records: Iterable[SentenceRecord],
    cfg: SplitConfig,
) -> tuple[list[SentenceRecord], list[SentenceRecord]]:
    """Partition records into (A, B); with unit=DOCUMENT all records sharing a
    source_id move together. Input order is preserved within each side."""
    records = list(records)
    return _partition(records, [record_unit_key(r, cfg.unit) for r in records], cfg)


def split_articles(
    articles: Sequence[list[str]],
    cfg: SplitConfig,
) -> tuple[list[list[str]], list[list[str]]]:
    """Partition whole articles (each one split unit, keyed by its position)."""
    keys = [f"article{_KEY_SEP}{i}" for i in range(len(articles))]
    return _partition(articles, keys, cfg)
