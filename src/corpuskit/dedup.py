"""Exact line deduplication, keep-first, at two scales.

dedup_key is a line's identity: a 128-bit digest of the exact bytes of the
normalized line, with no case folding and no interior whitespace
collapsing, so cased variants stay distinct. The build keeps one such digest
per distinct line in memory, and so does dedup_lines for files: fine up to
hundreds of millions of lines on a workstation. dedup_files is a two-pass
external-sort variant for inputs whose key set does not fit: pass one spills
sorted (digest, index) runs to disk and merges them to find each digest's
first occurrence, pass two re-reads the input and emits the survivors.
"""

from __future__ import annotations

import hashlib
import heapq
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .core import decode_line

DIGEST_BYTES = 16  # 128 bits; collision odds are negligible at web-corpus scale


def dedup_key(text: str) -> bytes:
    """128-bit content digest of the normalized line. Equal text, equal key."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=DIGEST_BYTES).digest()


@dataclass
class DedupSummary:
    read: int = 0
    kept: int = 0

    @property
    def dropped(self) -> int:
        return self.read - self.kept

    def line(self) -> str:
        return f"read={self.read} kept={self.kept} dropped={self.dropped}"


def _iter_file_lines(paths: list[Path]) -> Iterator[str]:
    """Normalized lines of the concatenated input files; blanks are skipped."""
    for path in paths:
        with open(path, "rb") as f:
            for line_no, raw in enumerate(f, start=1):
                yield decode_line(raw, str(path), line_no).strip()


def dedup_lines(paths: list[Path | str], out_path: Path | str) -> DedupSummary:
    """In-memory file mode: dedup the concatenation of the inputs into out_path.

    Blank lines never reach the output and count as dropped.
    """
    paths = [Path(p) for p in paths]
    summary = DedupSummary()
    seen: set[bytes] = set()
    with open(out_path, "w", encoding="utf-8", newline="\n") as out:
        for text in _iter_file_lines(paths):
            summary.read += 1
            if not text:
                continue
            key = dedup_key(text)
            if key in seen:
                continue
            seen.add(key)
            out.write(text + "\n")
            summary.kept += 1
    return summary


_INDEX_WIDTH = 12  # zero-padded so lexicographic order equals numeric order


def _spill_sorted(lines: list[str], tmp_dir: Path, n: int) -> Path:
    lines.sort()
    path = tmp_dir / f"run-{n:05d}.txt"
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines))
        if lines:
            f.write("\n")
    return path


def _merged_lines(run_paths: list[Path]) -> Iterator[str]:
    files = [open(p, "r", encoding="ascii") for p in run_paths]
    try:
        for line in heapq.merge(*files):
            yield line.rstrip("\n")
    finally:
        for f in files:
            f.close()


def dedup_files(
    paths: list[Path | str],
    out_path: Path | str,
    tmp_dir: Path | str | None = None,
    chunk_lines: int = 200_000,
) -> DedupSummary:
    """External-sort mode: same output as dedup_lines with bounded memory.

    Peak memory is O(chunk_lines), independent of input size. Output is
    byte-identical to the in-memory mode on the same inputs.
    """
    paths = [Path(p) for p in paths]
    summary = DedupSummary()
    with tempfile.TemporaryDirectory(dir=tmp_dir) as td:
        work = Path(td)

        # Pass 1: spill sorted (digest, line index) runs, blanks excluded.
        runs: list[Path] = []
        buf: list[str] = []
        index = 0
        for text in _iter_file_lines(paths):
            summary.read += 1
            if not text:
                index += 1
                continue
            buf.append(f"{dedup_key(text).hex()} {index:0{_INDEX_WIDTH}d}")
            index += 1
            if len(buf) >= chunk_lines:
                runs.append(_spill_sorted(buf, work, len(runs)))
                buf = []
        if buf:
            runs.append(_spill_sorted(buf, work, len(runs)))
            buf = []

        # Merge: within a digest group the smallest index comes first, which
        # is exactly the keep-first survivor. Spill survivor indices and sort
        # them back into input order.
        survivor_runs: list[Path] = []
        survivors: list[str] = []
        prev_digest = None
        for entry in _merged_lines(runs):
            digest, idx = entry.split(" ")
            if digest != prev_digest:
                survivors.append(idx)
                prev_digest = digest
                if len(survivors) >= chunk_lines:
                    survivor_runs.append(_spill_sorted(survivors, work, len(runs) + len(survivor_runs)))
                    survivors = []
        if survivors:
            survivor_runs.append(_spill_sorted(survivors, work, len(runs) + len(survivor_runs)))
            survivors = []

        # Pass 2: re-read the input and emit lines whose index survived.
        keep_iter = _merged_lines(survivor_runs)
        next_keep = next(keep_iter, None)
        with open(out_path, "w", encoding="utf-8", newline="\n") as out:
            for index, text in enumerate(_iter_file_lines(paths)):
                if next_keep is not None and index == int(next_keep):
                    out.write(text + "\n")
                    summary.kept += 1
                    next_keep = next(keep_iter, None)
    return summary
