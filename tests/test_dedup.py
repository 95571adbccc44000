import hashlib
import os
import random

import pytest

from corpuskit.dedup import dedup_files, dedup_key, dedup_lines
from corpuskit.pipeline import PipelineConfig, SourceSpec, run_pipeline

import oracles


def _dedup(tmp_path, *files):
    """Write each list of texts to its own file, dedup them with dedup_lines
    in that order, and return the surviving texts."""
    paths = []
    for i, texts in enumerate(files):
        path = tmp_path / f"in{i}.txt"
        path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        paths.append(path)
    out = tmp_path / "out.txt"
    dedup_lines(paths, out)
    return out.read_text(encoding="utf-8").splitlines()


def test_key_deterministic():
    assert dedup_key("a") == dedup_key("a")
    assert dedup_key("a") != dedup_key("b")


def test_key_is_case_sensitive():
    assert dedup_key("Kamusta") != dedup_key("kamusta")


def test_key_width():
    assert len(dedup_key("x")) == 16


def test_key_is_unkeyed_blake2b_of_the_utf8_bytes():
    # the in-memory and external modes, and every dedup across runs, rely on these exact digests
    for text in ("", "x", "Kamusta po", "kamusta é", "漢字\x1f"):
        assert dedup_key(text) == hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def test_key_is_blake2b_of_the_utf8_bytes_on_any_text():
    # Many keys in one process: a key that updated the shared prepared state
    # instead of a copy would change every key after it.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(st.text())
    def key_matches_hashlib(text):
        expected = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
        assert dedup_key(text) == expected
        assert dedup_key(text) == expected

    key_matches_hashlib()


def test_keep_first_basic(tmp_path):
    assert _dedup(tmp_path, ["a", "b", "a"]) == ["a", "b"]


def test_all_distinct_unchanged(tmp_path):
    assert _dedup(tmp_path, ["x", "y", "z"]) == ["x", "y", "z"]


def test_survivor_provenance_is_first_occurrence(tmp_path):
    # The build keeps one record per text, the first one read: the survivor
    # of X is source one's line 1, so the dedup counts credit it to source one.
    x, y = "alpha beta gamma delta", "epsilon zeta eta theta"
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    one.write_text(f"{x}\n{x}\n", encoding="utf-8")
    two.write_text(f"{x}\n{y}\n", encoding="utf-8")
    cfg = PipelineConfig(sources=[SourceSpec("one", one), SourceSpec("two", two)], output_dir=tmp_path / "out")
    stats = run_pipeline(cfg, log=None)
    dedup = [(s.source_id, s.lines_out, s.duplicates_dropped) for s in stats.stages if s.stage == "dedup"]
    assert dedup == [("one", 1, 1), ("two", 1, 1)]
    assert (tmp_path / "out" / "corpus.txt").read_text(encoding="utf-8") == f"{x}\n{y}\n"


def test_idempotent(tmp_path):
    once = _dedup(tmp_path, ["a", "b", "a", "c", "b"])
    assert _dedup(tmp_path, once) == once


def test_concatenated_corpus_equals_single_copy(tmp_path):
    texts = ["p", "q", "r", "p"]
    assert _dedup(tmp_path, texts, texts) == _dedup(tmp_path, texts)


def _random_lines(n, rng, dup_rate=0.3):
    lines = []
    vocab = ["ulan", "araw", "bagyo", "init", "lamig", "hangin", "alon", "tubig"]
    for i in range(n):
        if lines and rng.random() < dup_rate:
            lines.append(rng.choice(lines))  # plant a duplicate
        else:
            lines.append(" ".join(rng.choice(vocab) for _ in range(rng.randrange(3, 9))) + f" {i}")
    return lines


def test_matches_naive_oracle_on_random_input(tmp_path):
    rng = random.Random(2024)
    texts = _random_lines(10_000, rng)
    assert _dedup(tmp_path, texts) == oracles.dedup_keep_first(texts)


def test_file_modes_agree(tmp_path):
    rng = random.Random(7)
    texts = _random_lines(5_000, rng)
    src = tmp_path / "in.txt"
    src.write_text("\n".join(texts) + "\n", encoding="utf-8")

    mem_out = tmp_path / "mem.txt"
    ext_out = tmp_path / "ext.txt"
    s1 = dedup_lines([src], mem_out)
    s2 = dedup_files([src], ext_out, tmp_dir=tmp_path, chunk_lines=512)

    assert mem_out.read_bytes() == ext_out.read_bytes()
    assert (s1.read, s1.kept) == (s2.read, s2.kept)
    assert mem_out.read_text(encoding="utf-8").splitlines() == oracles.dedup_keep_first(texts)


def test_file_mode_skips_blanks(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("a\n\nb\na\n\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    summary = dedup_lines([src], out)
    assert out.read_text(encoding="utf-8") == "a\nb\n"
    assert summary.read == 5 and summary.kept == 2 and summary.dropped == 3
    assert summary.line() == "read=5 kept=2 dropped=3"


def test_multiple_inputs_keep_first_across_files(tmp_path):
    f1 = tmp_path / "one.txt"
    f2 = tmp_path / "two.txt"
    f1.write_text("x\ny\n", encoding="utf-8")
    f2.write_text("y\nz\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    dedup_lines([f1, f2], out)
    assert out.read_text(encoding="utf-8") == "x\ny\nz\n"

    ext = tmp_path / "ext.txt"
    dedup_files([f1, f2], ext, tmp_dir=tmp_path, chunk_lines=2)
    assert ext.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("chunk_lines", [0, -1])
def test_external_mode_rejects_a_chunk_below_one_line(tmp_path, chunk_lines):
    src = tmp_path / "in.txt"
    src.write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"chunk_lines must be at least 1, got {chunk_lines}"):
        dedup_files([src], tmp_path / "out.txt", tmp_dir=tmp_path, chunk_lines=chunk_lines)
    assert sorted(os.listdir(tmp_path)) == ["in.txt"]


def test_external_mode_empty_input(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "out.txt"
    summary = dedup_files([src], out, tmp_dir=tmp_path)
    assert summary.read == 0 and summary.kept == 0
    assert out.read_text(encoding="utf-8") == ""
