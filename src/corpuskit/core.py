"""Shared text model: the line decoder, sentence records, errors and filter
verdicts, and the one path that commits output files.

One "line" is one sentence: a physical line of the input, ended by LF only,
with its terminator and surrounding whitespace stripped (``str.strip()``)
and every interior codepoint kept exactly; a CR left inside it is refused,
a CRLF ending is not. A token is a maximal run of non-whitespace characters
under the Unicode definition of whitespace (``str.split()``); this is the
unit every downstream length/ratio heuristic counts. No Unicode normalization
(NFC/NFD) is ever applied: the tokenizer downstream is cased with full
character coverage, so altering codepoints would change its alphabet.
"""

from __future__ import annotations

import enum
import os
import stat
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


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

    Invalid UTF-8 raises EncodingError, and a CR that str.strip() leaves in
    the line raises line_terminator_error: universal-newline text mode would
    end the line there too. Both name the line and the file: a file object's
    name, or source_id for any other iterable of bytes.
    """
    name = str(getattr(lines, "name", source_id))
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise EncodingError(name, line_no, str(e)) from None
        if "\r" in line and "\r" in line.strip():
            raise line_terminator_error(name, line_no, line.strip())
        yield line_no, line


@contextmanager
def staged_outputs() -> Iterator[Callable[[str | os.PathLike], str]]:
    """Yield stage(path), which returns where to write path's new content.

    A new path or a regular file with one link is staged in a unique
    .corpuskit-* directory beside it; a symlink, a device, a hard-linked file,
    or a path whose directory takes no new entry is written in place. Once the
    block succeeds, each staged file takes the old file's permission bits and
    replaces its path, in the order staged. Every staging directory is
    removed, on success and on failure.
    """
    commits: list[tuple[str, str, os.stat_result | None]] = []
    with ExitStack() as stack:
        def stage(path: str | os.PathLike) -> str:
            path = os.fspath(path)
            st = os.lstat(path) if os.path.lexists(path) else None
            if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
                with suppress(OSError):  # opening the path itself then names the output in its error
                    tmp = stack.enter_context(tempfile.TemporaryDirectory(
                        prefix=".corpuskit-", dir=os.path.dirname(os.path.abspath(path))))
                    staged = os.path.join(tmp, os.path.basename(path))
                    commits.append((staged, path, st))
                    return staged
            return path

        yield stage
        for staged, path, st in commits:
            if st:
                os.chmod(staged, stat.S_IMODE(st.st_mode))
            os.replace(staged, path)
