import hashlib
import os
import re
import stat
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from corpuskit.filters import FilterConfig
from corpuskit.ingest import Side
from corpuskit.pipeline import (
    _OPTIONS,
    PipelineConfig,
    PipelineError,
    PipelineStats,
    SourceSpec,
    StageStats,
    load_config,
    report_stats,
    run_pipeline,
    stats_from_jsonl,
    validate_config,
)
from corpuskit.split import SplitConfig, SplitUnit
from corpuskit.bpe import TokenizerConfig

from fixtures import PIPELINE_SIX_LINES, fail_on_replace, refuse_writes_in, umask


@pytest.fixture
def six_line_source(tmp_path):
    src = tmp_path / "mixed.txt"
    src.write_text("\n".join(PIPELINE_SIX_LINES) + "\n", encoding="utf-8")
    return src


def _cfg(tmp_path, sources, **kwargs):
    return PipelineConfig(sources=sources, output_dir=tmp_path / "out", **kwargs)


# --- validation ---------------------------------------------------------------

def test_minimal_valid_config(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    assert validate_config(cfg) == []


def test_duplicate_source_id_names_both_entries(tmp_path, six_line_source):
    other = tmp_path / "other.txt"
    other.write_text("x\n", encoding="utf-8")
    cfg = _cfg(tmp_path, [SourceSpec("dup", six_line_source), SourceSpec("dup", other)])
    problems = validate_config(cfg)
    assert len(problems) == 1
    assert "dup" in problems[0]
    assert str(six_line_source) in problems[0] and str(other) in problems[0]


def test_bad_split_ratio_is_flagged(tmp_path, six_line_source):
    cfg = _cfg(
        tmp_path,
        [SourceSpec("m", six_line_source)],
        split_cfg=SplitConfig(ratio=1.5, seed=0),
    )
    assert any("ratio" in p for p in validate_config(cfg))


def test_missing_path_is_flagged(tmp_path):
    cfg = _cfg(tmp_path, [SourceSpec("gone", tmp_path / "nope.txt")])
    assert any("does not exist" in p for p in validate_config(cfg))


def test_paired_needs_second_path(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("p", six_line_source, format="paired")])
    assert any("path2" in p for p in validate_config(cfg))


@pytest.mark.parametrize("where", ["file", "under a file", "dangling symlink"])
def test_output_dir_that_cannot_be_a_directory_is_flagged(tmp_path, where):
    # mkdir(exist_ok=True) would fail on each of these with EEXIST or ENOTDIR
    outfile = tmp_path / "outfile"
    outfile.write_text("not a build\n", encoding="utf-8")
    out_dir = {"file": outfile, "under a file": outfile / "sub", "dangling symlink": tmp_path / "link"}[where]
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    cfg = PipelineConfig(sources=[SourceSpec("gone", tmp_path / "nope.txt")], output_dir=out_dir)
    problems = validate_config(cfg)
    assert f"output_dir is not a directory: {out_dir}" in problems
    assert any("does not exist" in p for p in problems)  # reported with the other problems
    with pytest.raises(PipelineError, match=r"^\[config\] .*output_dir is not a directory"):
        run_pipeline(cfg, log=None)
    assert outfile.read_text(encoding="utf-8") == "not a build\n"


# --- the six-line walkthrough ----------------------------------------------------

def test_six_line_fixture_walkthrough(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    stats = run_pipeline(cfg, log=None)

    out = (cfg.output_dir / "corpus.txt").read_text(encoding="utf-8")
    assert out == "magandang umaga sa inyong lahat\n"

    by_stage = {(s.stage, s.source_id): s for s in stats.stages}
    filt = by_stage[("filter", "mixed")]
    assert filt.rejects == {"NonLatin": 1, "Length": 1, "PunctRun": 1, "Html": 1}
    assert filt.lines_in == 6 and filt.lines_out == 2
    ded = by_stage[("dedup", "mixed")]
    assert ded.duplicates_dropped == 1 and ded.lines_out == 1

    rejects = (cfg.output_dir / "rejects.tsv").read_text(encoding="utf-8").splitlines()
    assert len(rejects) == 4
    assert all("\t" in line for line in rejects)

    _, table = report_stats(stats)
    assert "kept 1 / 6 (16.7%)" in table


def test_duplicated_source_equals_single_source_after_dedup(tmp_path, six_line_source):
    once_cfg = _cfg(tmp_path, [SourceSpec("a", six_line_source)])
    run_pipeline(once_cfg, log=None)
    once = (once_cfg.output_dir / "corpus.txt").read_bytes()

    twice_cfg = PipelineConfig(
        sources=[SourceSpec("a", six_line_source), SourceSpec("b", six_line_source)],
        output_dir=tmp_path / "out2",
    )
    stats = run_pipeline(twice_cfg, log=None)
    assert (twice_cfg.output_dir / "corpus.txt").read_bytes() == once

    dedup = {s.source_id: s for s in stats.stages if s.stage == "dedup"}
    assert (dedup["a"].lines_in, dedup["a"].lines_out, dedup["a"].duplicates_dropped) == (2, 1, 1)
    assert (dedup["b"].lines_in, dedup["b"].lines_out, dedup["b"].duplicates_dropped) == (2, 0, 2)
    assert [s.stage for s in stats.stages] == ["ingest", "filter"] * 2 + ["dedup"] * 2


def test_empty_source_list(tmp_path):
    cfg = _cfg(tmp_path, [])
    stats = run_pipeline(cfg, log=None)
    assert (cfg.output_dir / "corpus.txt").read_text(encoding="utf-8") == ""
    assert stats.total("ingest", "lines_in") == 0
    _, table = report_stats(stats)
    assert "kept 0 / 0 (0.0%)" in table


# --- determinism and stage outputs -------------------------------------------------

def _write_mixed_sources(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text(
        "\n".join(PIPELINE_SIX_LINES + [""] + [f"karagdagang pangungusap bilang {i} dito" for i in range(30)]) + "\n",
        encoding="utf-8",
    )
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text(
        "".join(f"english sentence {i}\tpangungusap na isinalin bilang {i}\n" for i in range(20))
        + "walang tab ang linyang ito\n"  # Malformed
        + "english only here\t\n"  # EmptySide
        + "a repeated line\tkaragdagang pangungusap bilang 3 dito\n",  # duplicate of a web line
        encoding="utf-8",
    )
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    left.write_text("".join(f"source line {i}\n" for i in range(10)), encoding="utf-8")
    right.write_text("".join(f"katumbas na linya bilang {i} po\n" for i in range(10)), encoding="utf-8")
    return [
        SourceSpec("web", plain, format="plain"),
        SourceSpec("aligned", tsv, format="tsv", side=Side.TARGET),
        SourceSpec("paired", left, format="paired", side=Side.TARGET, path2=right),
    ]


# SHA-256 of every artifact of the mixed-source build below; a refactor of
# the build must reproduce these bytes exactly.
MIXED_BUILD_SHA256 = {
    "corpus.txt": "ad8a792cee0c627b64eab6a4e62f143d5f29b598305ca9e6117058345fd9529a",
    "split_a.txt": "4a399344329f7db68192f2ec27d95a0287303f4b7de21930ace0a716eb731acf",
    "split_b.txt": "fb51e2d286f7e39e7da97c8c623855833f2a03804e32055143c386f9c91fd060",
    "bpe.merges.txt": "eea1a343d8dd35f97522c37431296d85645b56dc74cd36a98ee7785c09b5adbc",
    "bpe.vocab.txt": "ad257b260b9056d1c72ce74837b3c0445b2f20568ee0b12ca754e04cb423cbd5",
    "stats.jsonl": "63fd1199f6115a27e84a2d82975ef989b60dc6e57094a4386fe65192f5b5f5a2",
    "stats.txt": "52c846632ccd44ba911a1930dae8283d24d06a7eda1c3443ee73286f648131ba",
    "rejects.tsv": "d2661aebaec4b46a87b257afb9446990a61b54dbf0df783d28cc0dbe2386368a",
}


def test_full_build_is_byte_deterministic(tmp_path):
    sources = _write_mixed_sources(tmp_path)
    for run in range(2):
        cfg = PipelineConfig(
            sources=sources,
            output_dir=tmp_path / f"out{run}",
            seed=20260808,
            split_cfg=SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.LINE),
            tokenizer_cfg=TokenizerConfig(vocab_size=120),
        )
        run_pipeline(cfg, log=None)
        digests = {
            name: hashlib.sha256((cfg.output_dir / name).read_bytes()).hexdigest()
            for name in MIXED_BUILD_SHA256
        }
        assert digests == MIXED_BUILD_SHA256
        assert sorted(p.name for p in cfg.output_dir.iterdir()) == sorted(MIXED_BUILD_SHA256)


# Lines that hold characters str.splitlines() breaks on but a line of the
# corpus does not: the build must keep each as one line in every artifact.
SEPARATOR_LINES = [
    "unang pangungusap\u2028na may hating talata sa gitna",
    "ikalawang pangungusap\x85na may susunod na linya rin",
    "ikatlong pangungusap\x1cna may hating talaksan po",
    "lahat\u2028ng tatlong\x85uri ay\x1cnarito sa isang linya",
]

# SHA-256 of every artifact of two more build shapes on the mixed sources
# plus SEPARATOR_LINES: a document split whose side A trains the tokenizer,
# and a tokenizer trained on corpus.txt with no split.
PINNED_SHAPES_SHA256 = {
    "document-split": {
        "bpe.merges.txt": "c11fc3e12e1a24ff5ea80645abce48adfe3a19465c8698fef112545e8a538e8b",
        "bpe.vocab.txt": "a5012b83a54571195fcee46256a853a7fc137eb73b239e47261fa1d41c018bfd",
        "corpus.txt": "e5327593c198ff12f52073a3ba494237a0461b412fad4709ead572979acbd2bf",
        "rejects.tsv": "d2661aebaec4b46a87b257afb9446990a61b54dbf0df783d28cc0dbe2386368a",
        "split_a.txt": "6b35534ecfb1268617e7645769c50445a1b715da41e4383f8ee3dd8e52d993d7",
        "split_b.txt": "6312697be525d85f750f84678da0d83e765b83f04487418eabf9707a548172a4",
        "stats.jsonl": "3bb0e426444e5f51e637f7c6f345ffe4cab9759a4de66e648c10fb142105f180",
        "stats.txt": "50a210e5efb3886999432d8fa3214c7ce0d5108007ae2dce7f1b88c8290a27dd",
    },
    "no-split": {
        "bpe.merges.txt": "ede94a95b757f2cf798f795c6e7deb74aafd0a25c992fbecef41b13b4c0073fe",
        "bpe.vocab.txt": "1411d45045acc07dc83a52e2c5806218ccf7219fa81715d67d4359887a955a0f",
        "corpus.txt": "e5327593c198ff12f52073a3ba494237a0461b412fad4709ead572979acbd2bf",
        "rejects.tsv": "d2661aebaec4b46a87b257afb9446990a61b54dbf0df783d28cc0dbe2386368a",
        "stats.jsonl": "17fa4efea363c8770748a33c107b8d0d15bc1032f4b32929e337a57377b2a5ac",
        "stats.txt": "cced6915f42ae28cbb69aa20933e4b7f83e2d964fa76be8307f05cf08759914a",
    },
}


@pytest.mark.parametrize("shape", sorted(PINNED_SHAPES_SHA256))
def test_pinned_build_shapes_are_byte_identical(tmp_path, shape):
    separators = tmp_path / "separators.txt"
    separators.write_text("".join(line + "\n" for line in SEPARATOR_LINES), encoding="utf-8")
    split_cfg = SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.DOCUMENT) if shape == "document-split" else None
    cfg = PipelineConfig(
        sources=[*_write_mixed_sources(tmp_path), SourceSpec("separators", separators)],
        output_dir=tmp_path / "out",
        seed=20260808,
        split_cfg=split_cfg,
        tokenizer_cfg=TokenizerConfig(vocab_size=120),
    )
    stats = run_pipeline(cfg, log=None)
    # every separator line survives as one line of the file the tokenizer trains on
    trained_on = "split_a.txt" if split_cfg else "corpus.txt"
    lines = (cfg.output_dir / trained_on).read_bytes().split(b"\n")
    assert all(line.encode("utf-8") in lines for line in SEPARATOR_LINES)
    assert stats.total("train-bpe", "lines_in") == len(lines) - 1
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in cfg.output_dir.iterdir()}
    assert digests == PINNED_SHAPES_SHA256[shape]


def test_the_build_holds_no_corpus_text(tmp_path):
    # 2,000 distinct kept lines of ~700 characters: a build that held them
    # as records would peak above the input size.
    words = ("maganda", "umaga", "balita", "bayan", "ngayon", "kasama", "paaralan", "lungsod")
    web = tmp_path / "web.txt"
    web.write_text("".join(
        f"linya{i} " + " ".join(words[(i + k) % len(words)] for k in range(100)) + "\n" for i in range(2000)
    ), encoding="utf-8")
    cfg = _cfg(tmp_path, [SourceSpec("web", web)], filter_cfg=FilterConfig(max_tokens=200),
               split_cfg=SplitConfig(ratio=0.5, seed=0, unit=SplitUnit.LINE))
    tracemalloc.start()
    try:
        stats = run_pipeline(cfg, log=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.total("dedup", "lines_out") == 2000
    assert peak < 0.5 * web.stat().st_size


def test_split_outputs_partition_corpus(tmp_path):
    sources = _write_mixed_sources(tmp_path)
    cfg = PipelineConfig(
        sources=sources,
        output_dir=tmp_path / "out",
        seed=5,
        split_cfg=SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.LINE),
    )
    run_pipeline(cfg, log=None)
    corpus = (cfg.output_dir / "corpus.txt").read_text(encoding="utf-8").splitlines()
    a = (cfg.output_dir / "split_a.txt").read_text(encoding="utf-8").splitlines()
    b = (cfg.output_dir / "split_b.txt").read_text(encoding="utf-8").splitlines()
    assert sorted(a + b) == sorted(corpus)
    assert not set(a) & set(b)


def test_split_refuses_a_corpus_that_reads_back_at_another_length(tmp_path, monkeypatch):
    import corpuskit.pipeline as pipeline

    real = pipeline._ingest_filter_dedup

    def one_line_more(*args):
        kept = real(*args)
        next(iter(kept.values())).append(10**6)  # provenance for a line corpus.txt lacks
        return kept

    monkeypatch.setattr(pipeline, "_ingest_filter_dedup", one_line_more)
    cfg = PipelineConfig(sources=_write_mixed_sources(tmp_path), output_dir=tmp_path / "out", seed=5,
                         split_cfg=SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.LINE))
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg, log=None)
    n = int(re.search(r"reads back (\d+) lines", str(exc.value))[1])
    assert re.fullmatch(rf"\[split\] \S*corpus\.txt reads back {n} lines, not the {n + 1} the build wrote",
                        str(exc.value)), exc.value
    assert not (cfg.output_dir / "corpus.txt").exists()


def test_conservation_holds_on_real_run(tmp_path):
    sources = _write_mixed_sources(tmp_path)
    cfg = PipelineConfig(sources=sources, output_dir=tmp_path / "out", seed=1)
    stats = run_pipeline(cfg, log=None)
    assert stats.conservation_errors() == []


def test_stats_roundtrip_through_jsonl(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    stats = run_pipeline(cfg, log=None)
    text = (cfg.output_dir / "stats.jsonl").read_text(encoding="utf-8")
    reloaded = stats_from_jsonl(text)
    assert report_stats(reloaded) == report_stats(stats)


def test_stats_roundtrip_with_unicode_line_separators_in_source_id():
    stats = PipelineStats([StageStats("ingest", "a\u2028b\x85c", lines_in=2, lines_out=1, rejects={"Empty": 1})])
    jsonl, _ = report_stats(stats)
    assert stats_from_jsonl(jsonl) == stats


def test_report_refuses_inconsistent_stats():
    broken = PipelineStats([StageStats("filter", "s", lines_in=10, lines_out=3)])
    with pytest.raises(ValueError, match="filter"):
        report_stats(broken)


def test_failure_preserves_previous_outputs(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    run_pipeline(cfg, log=None)
    before = (cfg.output_dir / "corpus.txt").read_bytes()

    # a tokenizer the surviving one-line corpus cannot support
    failing = PipelineConfig(
        sources=[SourceSpec("mixed", six_line_source)],
        output_dir=cfg.output_dir,
        tokenizer_cfg=TokenizerConfig(vocab_size=100_000),
    )
    with pytest.raises(PipelineError) as exc:
        run_pipeline(failing, log=None)
    assert "train-bpe" in str(exc.value)
    assert (cfg.output_dir / "corpus.txt").read_bytes() == before
    assert not list(cfg.output_dir.glob(".corpuskit-*"))


def test_build_leaves_foreign_staging_files_alone(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    foreign = cfg.output_dir / ".corpuskit-tmp" / "foreign.txt"
    foreign.parent.mkdir(parents=True)
    foreign.write_text("another build's staging file\n", encoding="utf-8")
    run_pipeline(cfg, log=None)
    assert foreign.read_text(encoding="utf-8") == "another build's staging file\n"
    assert (cfg.output_dir / "corpus.txt").read_text(encoding="utf-8") == "magandang umaga sa inyong lahat\n"
    assert [p.name for p in cfg.output_dir.glob(".corpuskit-*")] == [".corpuskit-tmp"]


# The order in which a build commits its outputs: stats.jsonl, the file
# that marks a complete set, comes last.
BUILD_COMMIT_ORDER = ["rejects.tsv", "corpus.txt", "split_a.txt", "split_b.txt",
                      "bpe.merges.txt", "bpe.vocab.txt", "stats.txt", "stats.jsonl"]


def _mixed_build_cfg(tmp_path, output_dir):
    return PipelineConfig(
        sources=_write_mixed_sources(tmp_path),
        output_dir=output_dir,
        seed=20260808,
        split_cfg=SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.LINE),
        tokenizer_cfg=TokenizerConfig(vocab_size=120),
    )


@pytest.mark.parametrize("k", range(1, len(BUILD_COMMIT_ORDER) + 1))
def test_a_failed_commit_keeps_every_later_build_output(tmp_path, monkeypatch, k):
    assert sorted(BUILD_COMMIT_ORDER) == sorted(MIXED_BUILD_SHA256)
    cfg = _mixed_build_cfg(tmp_path, tmp_path / "out")
    cfg.output_dir.mkdir()
    for name in BUILD_COMMIT_ORDER:
        (cfg.output_dir / name).write_text(f"old {name}\n", encoding="utf-8")
    fail_on_replace(monkeypatch, k)
    with pytest.raises(OSError, match="injected replace failure"):
        run_pipeline(cfg, log=None)
    new, old = BUILD_COMMIT_ORDER[:k - 1], BUILD_COMMIT_ORDER[k - 1:]
    assert {name: hashlib.sha256((cfg.output_dir / name).read_bytes()).hexdigest() for name in new} == {
        name: MIXED_BUILD_SHA256[name] for name in new}
    assert all((cfg.output_dir / name).read_text(encoding="utf-8") == f"old {name}\n" for name in old)
    assert sorted(os.listdir(cfg.output_dir)) == sorted(BUILD_COMMIT_ORDER)


def test_an_output_directory_that_refuses_writes_keeps_the_previous_build(tmp_path, monkeypatch):
    cfg = _mixed_build_cfg(tmp_path, tmp_path / "out")
    run_pipeline(cfg, log=None)
    before = {name: (cfg.output_dir / name).read_bytes() for name in os.listdir(cfg.output_dir)}
    assert sorted(before) == sorted(BUILD_COMMIT_ORDER)
    refuse_writes_in(monkeypatch, cfg.output_dir)
    with pytest.raises(PermissionError) as exc:
        run_pipeline(cfg, log=None)
    assert exc.value.filename == str(cfg.output_dir / "rejects.tsv")
    assert str(cfg.output_dir / "rejects.tsv") in str(exc.value)
    monkeypatch.undo()
    assert {name: (cfg.output_dir / name).read_bytes() for name in os.listdir(cfg.output_dir)} == before


def _short_paired_target(sources):
    right = sources[2].path2
    right.write_bytes(b"".join(right.read_bytes().splitlines(keepends=True)[:-1]))
    return "paired corpus 'paired': target file ends at line 9"


def _invalid_utf8_on_a_later_line(sources):
    tsv = sources[1].path
    lines = tsv.read_bytes().splitlines(keepends=True)
    lines[9] = b"english sentence \xff\tpangungusap na sira\n"
    tsv.write_bytes(b"".join(lines))
    return f"invalid UTF-8 in source '{tsv}' at line 10: "


def _lone_cr_on_a_later_line(sources):
    plain = sources[0].path
    with open(plain, "ab") as f:
        f.write(b"isang huling linya\rna may CR sa gitna\n")
    n = plain.read_bytes().count(b"\n")
    return f"{plain}:{n}: record text contains a line terminator: 'isang huling linya\\rna may CR sa gitna'"


@pytest.mark.parametrize("fault", [_short_paired_target, _invalid_utf8_on_a_later_line, _lone_cr_on_a_later_line],
                         ids=["short-paired-target", "invalid-utf8", "lone-cr"])
def test_a_faulty_input_keeps_every_build_output(tmp_path, fault):
    cfg = _mixed_build_cfg(tmp_path, tmp_path / "out")
    run_pipeline(cfg, log=None)
    before = {name: (cfg.output_dir / name).read_bytes() for name in os.listdir(cfg.output_dir)}
    assert sorted(before) == sorted(BUILD_COMMIT_ORDER)
    detail = fault(cfg.sources)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg, log=None)
    assert str(exc.value).startswith("[ingest] ") and detail in str(exc.value)
    assert {name: (cfg.output_dir / name).read_bytes() for name in os.listdir(cfg.output_dir)} == before


def test_build_writes_through_a_symlinked_output(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    cfg.output_dir.mkdir()
    rejects = cfg.output_dir / "rejects.tsv"
    rejects.symlink_to(os.devnull)
    run_pipeline(cfg, log=None)
    assert rejects.is_symlink() and os.readlink(rejects) == os.devnull
    assert (cfg.output_dir / "corpus.txt").read_text(encoding="utf-8") == "magandang umaga sa inyong lahat\n"
    assert not [name for name in os.listdir(os.path.dirname(os.devnull)) if name.startswith(".corpuskit-")]


@pytest.mark.parametrize("linked", [("corpus.txt",), ("split_a.txt",), ("corpus.txt", "split_a.txt")])
def test_build_reads_back_its_own_text_when_outputs_go_to_devnull(tmp_path, linked):
    """The split reads corpus.txt back and the tokenizer split_a.txt; with
    either linked to /dev/null they still see every kept line."""
    def build(out_dir, devnull_names=()):
        cfg = PipelineConfig(sources=sources, output_dir=out_dir, seed=20260808,
                             split_cfg=SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.LINE),
                             tokenizer_cfg=TokenizerConfig(vocab_size=120))
        out_dir.mkdir()
        for name in devnull_names:
            (out_dir / name).symlink_to(os.devnull)
        run_pipeline(cfg, log=None)
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    sources = _write_mixed_sources(tmp_path)
    normal = build(tmp_path / "normal")
    linked_build = build(tmp_path / "linked", linked)
    assert all(linked_build.pop(name) == b"" for name in linked)
    assert linked_build == {name: data for name, data in normal.items() if name not in linked}
    assert all(os.readlink(tmp_path / "linked" / name) == os.devnull for name in linked)


def test_build_outputs_keep_their_permissions_or_take_the_umask_default(tmp_path, six_line_source):
    cfg = _cfg(tmp_path, [SourceSpec("mixed", six_line_source)])
    with umask(0o002):
        run_pipeline(cfg, log=None)
    assert {stat.S_IMODE(p.stat().st_mode) for p in cfg.output_dir.iterdir()} == {0o664}
    corpus = cfg.output_dir / "corpus.txt"
    corpus.chmod(0o640)
    run_pipeline(cfg, log=None)
    assert stat.S_IMODE(corpus.stat().st_mode) == 0o640


def test_encoding_error_is_stage_tagged(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\n\xff broken\n")
    cfg = _cfg(tmp_path, [SourceSpec("badsrc", bad)])
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg, log=None)
    msg = str(exc.value)
    assert "[ingest]" in msg and "badsrc" in msg and "line 2" in msg


def test_unequal_paired_files_are_stage_tagged(tmp_path):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    left.write_text("one\ntwo\n", encoding="utf-8")
    right.write_text("isa\n", encoding="utf-8")
    cfg = _cfg(tmp_path, [SourceSpec("pairs", left, format="paired", path2=right)])
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg, log=None)
    msg = str(exc.value)
    assert "[ingest]" in msg and "pairs" in msg and "target file ends at line 1" in msg


def test_interior_carriage_return_is_stage_tagged(tmp_path):
    bad = tmp_path / "cr.txt"
    bad.write_bytes(b"ok line\nbroken\rline\n")
    cfg = _cfg(tmp_path, [SourceSpec("crsrc", bad)])
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg, log=None)
    msg = str(exc.value)
    assert "[ingest]" in msg and "crsrc" in msg and "line terminator" in msg
    assert f"{bad}:2:" in msg  # the file and the physical line of the bad record


# --- config documents ---------------------------------------------------------------

CONFIG_DOC = """\
[pipeline]
output_dir = {out}
seed = 99

[filter]
min_tokens = 2
html_patterns = http:// .com

[split]
ratio = 0.6
unit = line

[tokenizer]
vocab_size = 120
special_tokens = <unk> <pad>

[source.web]
path = {plain}
format = plain

[source.bi]
path = {tsv}
format = tsv
side = target
"""


def test_load_config_document(tmp_path, six_line_source):
    tsv = tmp_path / "b.tsv"
    tsv.write_text("a\tb\n", encoding="utf-8")
    doc = tmp_path / "build.ini"
    doc.write_text(
        CONFIG_DOC.format(out=tmp_path / "out", plain=six_line_source, tsv=tsv),
        encoding="utf-8",
    )
    cfg = load_config(doc)
    assert cfg.seed == 99
    assert cfg.filter_cfg.min_tokens == 2
    assert cfg.filter_cfg.html_patterns == ("http://", ".com")
    assert cfg.split_cfg.ratio == 0.6 and cfg.split_cfg.unit is SplitUnit.LINE
    assert cfg.tokenizer_cfg.vocab_size == 120
    assert cfg.tokenizer_cfg.special_tokens == ("<unk>", "<pad>")
    assert [s.source_id for s in cfg.sources] == ["web", "bi"]
    assert cfg.sources[1].side is Side.TARGET
    assert validate_config(cfg) == []


def test_a_filter_section_alone_is_a_config(tmp_path):
    doc = tmp_path / "filter.ini"
    doc.write_text("# comment\n[filter]\n; comment\nmin_tokens = 3\n\nawl_max = 20\n", encoding="utf-8")
    cfg = load_config(doc)
    assert cfg.filter_cfg.min_tokens == 3 and cfg.filter_cfg.awl_max == 20.0
    assert cfg.filter_cfg.max_tokens == FilterConfig().max_tokens  # untouched default
    # no [pipeline] section is the same as an empty one
    assert cfg.output_dir == Path("build") and cfg.seed == 0
    assert cfg.sources == [] and cfg.split_cfg is None and cfg.tokenizer_cfg is None


def _field_names(cls, *skip):
    return {f.name for f in fields(cls)} - set(skip)


def test_option_table_names_every_config_field():
    assert set(_OPTIONS) == {"pipeline", "filter", "split", "tokenizer", "source"}
    assert set(_OPTIONS["pipeline"]) == {"output_dir", "seed"} <= _field_names(PipelineConfig)
    assert set(_OPTIONS["filter"]) == _field_names(FilterConfig)
    assert set(_OPTIONS["split"]) == _field_names(SplitConfig, "seed")  # a sub-seed at run time
    assert set(_OPTIONS["tokenizer"]) == _field_names(TokenizerConfig)
    assert set(_OPTIONS["source"]) == _field_names(SourceSpec, "source_id")  # the section name


def test_config_defaults(tmp_path, six_line_source):
    doc = tmp_path / "build.ini"
    doc.write_text(f"[pipeline]\n\n[split]\n\n[source.web]\npath = {six_line_source}\n", encoding="utf-8")
    cfg = load_config(doc)
    assert cfg.output_dir == Path("build") and cfg.seed == 0
    assert cfg.split_cfg == SplitConfig(ratio=0.5, seed=0)
    assert cfg.tokenizer_cfg is None and cfg.filter_cfg == FilterConfig()
    assert cfg.sources == [SourceSpec("web", six_line_source)]


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    doc = tmp_path / "build.ini"
    doc.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
    cfg = load_config(doc)
    assert cfg.split_cfg == SplitConfig(ratio=0.6, seed=0, unit=SplitUnit.DOCUMENT)
    assert cfg.tokenizer_cfg.special_tokens == ("<unk>", "<pad>", "<s>", "</s>", "<mask>")
    assert [s.source_id for s in cfg.sources] == ["oscar", "ccaligned", "subs"]
    assert cfg.sources[2].path2 == Path("data/subs.fil.txt")


@pytest.mark.parametrize("doc, fragments", [
    ("[pipeline]\n[tokeniser]\nvocab_size = 30\n", ["unknown section [tokeniser]"]),
    ("[pipeline]\n[source.web]\npath = a.txt\nformt = tsv\n", ["unknown source option 'formt'", "[source.web]"]),
    ("[pipeline]\n[split]\nratios = 0.6\n", ["unknown split option 'ratios'", "[split]"]),
    ("[pipeline]\n[source.web]\nformat = plain\n", ["[source.web] has no path"]),
    ("[pipeline]\nseed = x\n", ["'seed'", "[pipeline]", "'x'"]),
    ("[pipeline]\n[source.web]\npath = a.txt\nside = left\n", ["'side'", "[source.web]", "'left'"]),
    ("[pipeline]\n[source]\npath = a.txt\n", ["unknown section [source]"]),
    ("[DEFAULT]\nformat = tsv\n[pipeline]\n", ["unknown section [DEFAULT]"]),
    ("[filter]\nmin_tokenz = 3\n", ["unknown filter option 'min_tokenz' in [filter]"]),
], ids=["unknown-section", "unknown-source-option", "unknown-split-option", "no-path", "bad-int",
        "bad-side", "source-without-id", "default-section", "unknown-filter-option"])
def test_config_errors_name_section_and_option(tmp_path, doc, fragments):
    path = tmp_path / "build.ini"
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}: ")
    for fragment in fragments:
        assert fragment in str(exc.value)

