"""Readers for plain and bilingual line corpora.

Plain corpora are UTF-8 text, one sentence per line. Bilingual corpora come
either as tab-separated two-column files or as paired parallel files with
equal line counts; extraction keeps one side and discards the other. All
readers stream, normalize every line, skip blanks, and keep the original
physical line numbers for provenance. Pass a Counter to collect skip counts.
Readers take the lines of a file opened in binary; core.decoded_lines
numbers and decodes them.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, zip_longest
from pathlib import Path
from typing import Iterable, Iterator

from .core import SentenceRecord, decoded_lines, line_terminator_error


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


def read_plain_corpus(
    lines: Iterable[bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[SentenceRecord]:
    """One record per non-empty normalized line; blanks are skipped and counted."""
    counts = Counter() if counts is None else counts
    for line_no, line in decoded_lines(lines, source_id):
        text = line.strip()
        counts["lines"] += 1
        if not text:
            counts["empty"] += 1
            continue
        yield SentenceRecord(text, source_id, line_no)


def read_tsv_bitext(
    lines: Iterable[bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[BitextRecord]:
    """Parse source<TAB>target lines, splitting on the first tab before either
    side is normalized, so an empty side survives for extraction to count.
    Blank lines and lines without a tab are skipped and counted."""
    counts = Counter() if counts is None else counts
    for line_no, line in decoded_lines(lines, source_id):
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
    source_lines: Iterable[bytes],
    target_lines: Iterable[bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[BitextRecord]:
    """Zip two parallel files line by line; unequal lengths are an error."""
    counts = Counter() if counts is None else counts
    pairs = zip_longest(decoded_lines(source_lines, source_id), decoded_lines(target_lines, source_id))
    for src, tgt in pairs:
        if src is None or tgt is None:
            short, longer = ("source", tgt) if src is None else ("target", src)
            raise ValueError(f"paired corpus '{source_id}': {short} file ends at line {longer[0] - 1}")
        counts["lines"] += 1
        yield BitextRecord(src[1].strip(), tgt[1].strip(), src[0])


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


def read_articles(lines: Iterable[bytes], source_id: str = "articles") -> Iterator[list[str]]:
    """Blank-line separated blocks of sentences, e.g. one news article each.
    A sentence holding a CR raises ValueError naming the file and line."""
    name = str(getattr(lines, "name", source_id))

    def texts() -> Iterator[str]:
        for line_no, line in decoded_lines(lines, source_id):
            text = line.strip()
            if "\r" in text:
                raise line_terminator_error(name, line_no, text)
            yield text

    for nonblank, block in groupby(texts(), key=bool):
        if nonblank:
            yield list(block)


def read_articles_file(path: Path | str) -> Iterator[list[str]]:
    with open(path, "rb") as f:
        yield from read_articles(f, str(path))
