"""Readers for plain and bilingual line corpora.

Plain corpora are UTF-8 text, one sentence per line. Bilingual corpora come
either as tab-separated two-column files or as paired parallel files with
equal line counts; extraction keeps one side and discards the other. All
readers stream, normalize every line, skip blanks, and keep the original
physical line numbers for provenance. Pass a Counter to collect skip counts.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, zip_longest
from pathlib import Path
from typing import Iterable, Iterator

from .core import SentenceRecord, decode_line


# Counter keys the readers skip lines under, with their names in the build report.
SKIP_KINDS = {"empty": "Empty", "malformed": "Malformed", "empty_side": "EmptySide"}


class Side(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass(frozen=True)
class BitextRecord:
    """One aligned sentence pair from a bilingual corpus; line_no is the
    pair's 1-based physical line in its file (in both files when paired)."""

    source_text: str
    target_text: str
    line_no: int


def _decoded(line: str | bytes, source_id: str, line_no: int) -> str:
    return decode_line(line, source_id, line_no) if isinstance(line, bytes) else line


def _as_text(line: str | bytes, source_id: str, line_no: int) -> str:
    return _decoded(line, source_id, line_no).strip()


def read_plain_corpus(
    lines: Iterable[str | bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[SentenceRecord]:
    """One record per non-empty normalized line; blanks are skipped and counted."""
    counts = Counter() if counts is None else counts
    for line_no, raw in enumerate(lines, start=1):
        text = _as_text(raw, source_id, line_no)
        counts["lines"] += 1
        if not text:
            counts["empty"] += 1
            continue
        yield SentenceRecord(text, source_id, line_no)


def read_tsv_bitext(
    lines: Iterable[str | bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[BitextRecord]:
    """Parse source<TAB>target lines, splitting on the first tab before either
    side is normalized, so an empty side survives for extraction to count.
    Blank lines and lines without a tab are skipped and counted."""
    counts = Counter() if counts is None else counts
    for line_no, raw in enumerate(lines, start=1):
        line = _decoded(raw, source_id, line_no)
        counts["lines"] += 1
        if not line.strip():
            counts["empty"] += 1
            continue
        left, sep, right = line.partition("\t")
        if not sep:
            counts["malformed"] += 1
            continue
        yield BitextRecord(left.strip(), right.strip(), line_no)


def read_paired_bitext(
    source_lines: Iterable[str | bytes],
    target_lines: Iterable[str | bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[BitextRecord]:
    """Zip two parallel files line by line; unequal lengths are an error."""
    counts = Counter() if counts is None else counts
    for line_no, (src, tgt) in enumerate(zip_longest(source_lines, target_lines), start=1):
        if src is None or tgt is None:
            short = "source" if src is None else "target"
            raise ValueError(f"paired corpus '{source_id}': {short} file ends at line {line_no - 1}")
        counts["lines"] += 1
        yield BitextRecord(
            _as_text(src, source_id, line_no),
            _as_text(tgt, source_id, line_no),
            line_no,
        )


def extract_bitext_side(
    records: Iterable[BitextRecord],
    side: Side,
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[SentenceRecord]:
    """Keep one language side, in order, each record numbered by its pair's
    physical line. Pairs with an empty chosen side are skipped and counted;
    duplicates are left for the dedup stage."""
    counts = Counter() if counts is None else counts
    for rec in records:
        text = rec.source_text if side is Side.SOURCE else rec.target_text
        if not text:
            counts["empty_side"] += 1
            continue
        yield SentenceRecord(text, source_id, rec.line_no)


def read_articles(
    lines: Iterable[str | bytes],
    source_id: str = "articles",
    counts: Counter | None = None,
) -> Iterator[list[str]]:
    """Blank-line separated blocks of sentences, e.g. one news article each."""
    counts = Counter() if counts is None else counts
    texts = (_as_text(raw, source_id, line_no) for line_no, raw in enumerate(lines, start=1))
    for nonblank, block in groupby(texts, key=bool):
        if nonblank:
            counts["articles"] += 1
            yield list(block)


def read_articles_file(path: Path | str, counts: Counter | None = None) -> Iterator[list[str]]:
    with open(path, "rb") as f:
        yield from read_articles(f, str(path), counts)
