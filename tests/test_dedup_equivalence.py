"""Property: the external-sort dedup_files gives the summary and the output
bytes of the in-memory dedup_lines, with chunks small enough that one run
merges several spill files. Both modes share one line reader, so they must
agree on blank lines and on lines holding characters that str.splitlines()
would break on, and both refuse a line holding a lone CR with the same error."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.dedup import dedup_files, dedup_lines

# Few distinct pieces, so lines repeat within and across files; a mid-line
# \x85, \x0c or U+2028 stays inside the line, a mid-line \r stops both
# modes, and padding is stripped.
_PIECE = st.sampled_from(["a", "b", "ñ", " ", "\t", "\r", "\x85", "\x0c", "\u2028"])
_LINE = st.lists(_PIECE, max_size=4).map("".join)
_FILE = st.tuples(st.lists(_LINE, max_size=12), st.booleans())


def _outcome(dedup, *args, **kwargs):
    """The summary, or the message of the ValueError that refuses a lone CR."""
    try:
        return dedup(*args, **kwargs)
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FILE, min_size=1, max_size=3), st.integers(1, 5))
def test_dedup_files_equals_dedup_lines(files, chunk_lines):
    with tempfile.TemporaryDirectory() as td:
        work = Path(td)
        paths = []
        for n, (lines, final_newline) in enumerate(files):
            path = work / f"in-{n}.txt"
            path.write_bytes(("\n".join(lines) + ("\n" if final_newline and lines else "")).encode("utf-8"))
            paths.append(path)
        in_memory = _outcome(dedup_lines, paths, work / "lines.txt")
        external = _outcome(dedup_files, paths, work / "files.txt", tmp_dir=work, chunk_lines=chunk_lines)
        assert external == in_memory
        lone_cr = any("\r" in line.strip() for lines, _ in files for line in lines)
        assert isinstance(in_memory, str) == lone_cr
        if not lone_cr:
            assert (work / "files.txt").read_bytes() == (work / "lines.txt").read_bytes()
