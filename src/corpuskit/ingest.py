"""Readers for plain and bilingual line corpora.

Plain corpora are UTF-8 text, one sentence per line. Bilingual corpora come
either as tab-separated two-column files or as paired parallel files with
equal line counts; extraction keeps one side and discards the other. All
readers stream, normalize every line, skip blanks, and keep the original
physical line numbers for provenance. Readers take the lines of a file
opened in binary; core.decoded_lines numbers and decodes them, and refuses
invalid UTF-8 and a lone CR for all.

Items are plain tuples, made once per kept line: read_plain_corpus and
extract_bitext_side yield (text, line_no), read_tsv_bitext and
read_paired_bitext yield (source_text, target_text, line_no), the field
order of BitextRecord. Pass a Counter to collect line and skip counts under
"lines" and the SKIP_KINDS keys. Each reader adds its counts to it once,
when it finishes, raises or is closed, so they cover exactly the lines it
read and are complete only after that.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import groupby, zip_longest
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .core import decoded_lines


# Counter keys the readers skip lines under, with their names in the build report.
SKIP_KINDS = {"empty": "Empty", "malformed": "Malformed", "empty_side": "EmptySide"}


class Side(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


class BitextRecord(NamedTuple):
    """One aligned sentence pair from a bilingual corpus; line_no is the
    pair's 1-based physical line in its file (in both files when paired).
    The bitext readers yield plain tuples of these fields in this order."""

    source_text: str
    target_text: str
    line_no: int


def _add(counts: Counter | None, **n: int) -> None:
    if counts is not None:
        counts.update(n)


def read_plain_corpus(
    lines: Iterable[bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[tuple[str, int]]:
    """(text, line_no) per non-empty normalized line; blanks are skipped and counted."""
    line_no = empty = 0
    try:
        for line_no, line in decoded_lines(lines, source_id):
            text = line.strip()
            if text:
                yield text, line_no
            else:
                empty += 1
    finally:
        _add(counts, lines=line_no, empty=empty)


def read_tsv_bitext(
    lines: Iterable[bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[tuple[str, str, int]]:
    """Parse source<TAB>target lines, splitting on the first tab before either
    side is normalized, so an empty side survives for extraction to count.
    Blank lines and lines without a tab are skipped and counted."""
    line_no = empty = malformed = 0
    try:
        for line_no, line in decoded_lines(lines, source_id):
            source, sep, target = line.partition("\t")
            source, target = source.strip(), target.strip()
            if not (source or target):  # the whole line is whitespace
                empty += 1
            elif sep:
                yield source, target, line_no
            else:
                malformed += 1
    finally:
        _add(counts, lines=line_no, empty=empty, malformed=malformed)


def read_paired_bitext(
    source_lines: Iterable[bytes],
    target_lines: Iterable[bytes],
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[tuple[str, str, int]]:
    """Zip two parallel files line by line; unequal lengths are an error."""
    line_no = 0
    try:
        pairs = zip_longest(decoded_lines(source_lines, source_id), decoded_lines(target_lines, source_id))
        for src, tgt in pairs:
            if src is None or tgt is None:
                short = "source" if src is None else "target"
                raise ValueError(f"paired corpus '{source_id}': {short} file ends at line {line_no}")
            line_no = src[0]
            yield src[1].strip(), tgt[1].strip(), line_no
    finally:
        _add(counts, lines=line_no)


def extract_bitext_side(
    records: Iterable[tuple[str, str, int]],
    side: Side,
    source_id: str,
    counts: Counter | None = None,
) -> Iterator[tuple[str, int]]:
    """Keep one language side, in order, as (text, line_no) with the pair's
    physical line. Pairs with an empty chosen side are skipped and counted;
    duplicates are left for the dedup stage."""
    pick = 0 if side is Side.SOURCE else 1
    empty_side = 0
    try:
        for rec in records:
            text = rec[pick]
            if text:
                yield text, rec[2]
            else:
                empty_side += 1
    finally:
        _add(counts, empty_side=empty_side)


def read_articles(lines: Iterable[bytes], source_id: str = "articles") -> Iterator[list[str]]:
    """Blank-line separated blocks of sentences, e.g. one news article each."""
    texts = (line.strip() for _, line in decoded_lines(lines, source_id))
    for nonblank, block in groupby(texts, key=bool):
        if nonblank:
            yield list(block)


def read_articles_file(path: Path | str) -> Iterator[list[str]]:
    with open(path, "rb") as f:
        yield from read_articles(f, str(path))
