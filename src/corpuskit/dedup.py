"""Exact line deduplication, keep-first, at two scales.

dedup_key is a line's identity: a 128-bit digest of the exact bytes of the
normalized line, with no case folding and no interior whitespace
collapsing, so cased variants stay distinct. Each key hashes from a copy of
one prepared empty BLAKE2b state, so no line pays for building the hash
object or parsing its arguments. The build keeps one such digest per
distinct line in memory, and so does dedup_lines for files: fine up to
hundreds of millions of lines on a workstation. dedup_files is a two-pass
external-sort variant for inputs whose key set does not fit: pass one spills
sorted (digest, index) runs to disk and merges them to find each digest's
first occurrence, pass two re-reads the input and emits the survivors.
Runs are fixed-width binary records, so bytewise order is key order: a
16-byte digest plus an 8-byte big-endian line index in pass one, the
index alone for the survivors.
"""

from __future__ import annotations

import heapq
import tempfile
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Iterator

# CPython's built-in BLAKE2b. hashlib.blake2b is this same function, but
# importing hashlib also loads OpenSSL's libcrypto, about 3.5 MiB of RSS per
# process.
from _blake2 import blake2b

from .core import decoded_lines

DIGEST_BYTES = 16  # 128 bits; collision odds are negligible at web-corpus scale
_INDEX_BYTES = 8  # big-endian, so bytewise order is numeric order


# Never updated itself: dedup_key updates a copy.
_EMPTY_STATE = blake2b(digest_size=DIGEST_BYTES)


def dedup_key(text: str) -> bytes:
    """128-bit content digest of the normalized line. Equal text, equal key."""
    h = _EMPTY_STATE.copy()
    h.update(text.encode("utf-8"))
    return h.digest()


@dataclass
class DedupSummary:
    read: int = 0
    kept: int = 0

    @property
    def dropped(self) -> int:
        return self.read - self.kept

    def line(self) -> str:
        return f"read={self.read} kept={self.kept} dropped={self.dropped}"


def _iter_file_lines(paths: list[Path | str]) -> Iterator[str]:
    """Normalized lines of the concatenated input files, blanks included."""
    for path in paths:
        with open(path, "rb") as f:
            yield from (line.strip() for _, line in decoded_lines(f, str(path)))


def dedup_lines(paths: list[Path | str], out_path: Path | str) -> DedupSummary:
    """In-memory file mode: dedup the concatenation of the inputs into out_path.

    Blank lines never reach the output and count as dropped.
    """
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


def _spill(records: Iterator[bytes], tmp_dir: Path, name: str, chunk_lines: int) -> list[Path]:
    """Sort the records chunk_lines at a time and write each sorted run of
    fixed-width records to its own file."""
    runs: list[Path] = []
    while chunk := sorted(islice(records, chunk_lines)):
        runs.append(tmp_dir / f"{name}-{len(runs):05d}.bin")
        with open(runs[-1], "wb") as f:
            f.write(b"".join(chunk))
        del chunk  # free this run before the next one is read
    return runs


def _merged(run_paths: list[Path], width: int) -> Iterator[bytes]:
    """The records of the sorted runs, merged into one sorted stream."""
    files = [open(p, "rb") for p in run_paths]
    try:
        yield from heapq.merge(*(iter(partial(f.read, width), b"") for f in files))
    finally:
        for f in files:
            f.close()


def _keyed(paths: list[Path | str], summary: DedupSummary) -> Iterator[bytes]:
    """A (digest, line index) record for each non-blank line; counts every line read."""
    for index, text in enumerate(_iter_file_lines(paths)):
        summary.read += 1
        if text:
            yield dedup_key(text) + index.to_bytes(_INDEX_BYTES, "big")


def _first_indices(key_runs: list[Path]) -> Iterator[bytes]:
    """The index of each digest's first record. Records sort by digest, then
    by index, so that is exactly the keep-first survivor."""
    prev_digest = None
    for entry in _merged(key_runs, DIGEST_BYTES + _INDEX_BYTES):
        if entry[:DIGEST_BYTES] != prev_digest:
            prev_digest = entry[:DIGEST_BYTES]
            yield entry[DIGEST_BYTES:]


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
    if chunk_lines < 1:
        raise ValueError(f"chunk_lines must be at least 1, got {chunk_lines}")
    paths = list(paths)  # both passes read them
    summary = DedupSummary()
    with tempfile.TemporaryDirectory(dir=tmp_dir) as td:
        work = Path(td)
        # Pass 1 spills sorted key runs; merging them gives the survivors'
        # indices, which are spilled again to sort them into input order.
        key_runs = _spill(_keyed(paths, summary), work, "keys", chunk_lines)
        survivor_runs = _spill(_first_indices(key_runs), work, "survivors", chunk_lines)

        # Pass 2: re-read the input and emit lines whose index survived.
        keep_iter = (int.from_bytes(idx, "big") for idx in _merged(survivor_runs, _INDEX_BYTES))
        next_keep = next(keep_iter, None)
        with open(out_path, "w", encoding="utf-8", newline="\n") as out:
            for index, text in enumerate(_iter_file_lines(paths)):
                if index == next_keep:
                    out.write(text + "\n")
                    summary.kept += 1
                    next_keep = next(keep_iter, None)
    return summary
