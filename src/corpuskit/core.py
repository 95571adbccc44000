"""Shared text model: the line decoder, sentence records, errors and filter
verdicts.

One "line" is one sentence: a physical line of the input with its
terminator and surrounding whitespace stripped (``str.strip()``) and every
interior codepoint kept exactly. A token is a maximal run of non-whitespace
characters under the Unicode definition of whitespace (``str.split()``);
this is the unit every downstream length/ratio heuristic counts. No Unicode
normalization (NFC/NFD) is ever applied: the tokenizer downstream is cased
with full character coverage, so altering codepoints would change its
alphabet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator


class CorpusError(Exception):
    """Base class for all toolkit errors."""


class EncodingError(CorpusError):
    """Invalid UTF-8 in an input corpus, naming the file (or source) and line."""

    def __init__(self, source_id: str, line_no: int, detail: str = ""):
        self.source_id = source_id
        self.line_no = line_no
        super().__init__(f"invalid UTF-8 in source '{source_id}' at line {line_no}" + (f": {detail}" if detail else ""))


def line_terminator_error(source_id: str, line_no: int, text: str) -> ValueError:
    """The error for a line that still holds a CR or LF once its own terminator is stripped."""
    return ValueError(f"{source_id}:{line_no}: record text contains a line terminator: {text!r}")


@dataclass(frozen=True, slots=True)
class SentenceRecord:
    """One corpus line plus provenance.

    text must hold no CR/LF (it is one physical line, already normalized);
    line_no is the 1-based position within the origin file.
    """

    text: str
    source_id: str
    line_no: int

    def __post_init__(self):
        if "\n" in self.text or "\r" in self.text:
            raise line_terminator_error(self.source_id, self.line_no, self.text)
        if self.line_no < 1:
            raise ValueError(f"line_no must be >= 1, got {self.line_no}")


class RejectReason(enum.Enum):
    NON_LATIN = "NonLatin"
    LENGTH = "Length"
    PUNCT_RUN = "PunctRun"
    AVG_WORD_LEN = "AvgWordLen"
    HTML = "Html"
    NONE = "None"


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of a quality filter: passed is true iff reason is NONE."""

    passed: bool
    reason: RejectReason

    def __post_init__(self):
        if self.passed != (self.reason is RejectReason.NONE):
            raise ValueError(f"inconsistent verdict: passed={self.passed}, reason={self.reason}")


PASS = FilterVerdict(True, RejectReason.NONE)


def decoded_lines(lines: Iterable[bytes], source_id: str) -> Iterator[tuple[int, str]]:
    """Number the lines of a file read in binary from 1 and decode each one.

    Invalid UTF-8 raises EncodingError naming the line and the file: a file
    object's name, or source_id for any other iterable of bytes.
    """
    for line_no, raw in enumerate(lines, start=1):
        try:
            yield line_no, raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise EncodingError(str(getattr(lines, "name", source_id)), line_no, str(e)) from None
