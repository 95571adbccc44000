import hashlib
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import corpuskit
from corpuskit import cli
from corpuskit.cli import main

from fixtures import PIPELINE_SIX_LINES, fail_on_replace, umask


def run_cli(*args):
    return main([str(a) for a in args])


def test_ingest_plain(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("a b c d\n\nx y z w\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    out.write_text("a previous output, longer than the new one\n", encoding="utf-8")
    assert run_cli("ingest", src, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "a b c d\nx y z w\n"
    assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.txt"]  # no staging file left behind
    assert "read=3 extracted=2 skipped=1" in capsys.readouterr().err


def test_ingest_tsv_target_side(tmp_path):
    src = tmp_path / "bi.tsv"
    src.write_text("hello\tkamusta\nbye\tpaalam\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run_cli("ingest", src, "--format", "tsv", "--side", "target", "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "kamusta\npaalam\n"


def test_ingest_paired(tmp_path):
    left = tmp_path / "l.txt"
    right = tmp_path / "r.txt"
    left.write_text("one\ntwo\n", encoding="utf-8")
    right.write_text("isa\ndalawa\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run_cli("ingest", left, right, "--format", "paired", "--side", "target", "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "isa\ndalawa\n"


def test_ingest_rejects_wrong_input_count(tmp_path, capsys):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    first.write_text("a b c d\tisa dalawa tatlo apat\n", encoding="utf-8")
    second.write_text("e f g h\tlima anim pito walo\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    for fmt in ("plain", "tsv"):
        assert run_cli("ingest", first, second, "--format", fmt, "--out", out) == 1
        assert f"{fmt} format takes exactly one input file" in capsys.readouterr().err
    assert run_cli("ingest", first, "--format", "paired", "--out", out) == 1
    assert "paired format takes exactly two input files" in capsys.readouterr().err


def test_ingest_missing_input_leaves_output_untouched(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("previous output\n", encoding="utf-8")
    assert run_cli("ingest", tmp_path / "missing.txt", "--out", out) == 1
    assert out.read_text(encoding="utf-8") == "previous output\n"


@pytest.mark.parametrize("command", ["ingest", "dedup", "split", "train-bpe"])
def test_an_output_in_a_missing_directory_is_named(tmp_path, capsys, command):
    src = tmp_path / "in.txt"
    src.write_text("low low lower newest newest widest\n", encoding="utf-8")
    first = tmp_path / "first.txt"
    first.write_text("keep me\n", encoding="utf-8")
    out = tmp_path / "missing" / "out.txt"
    argv = {
        "ingest": ["ingest", src, "--out", out],
        "dedup": ["dedup", "--in", src, "--out", out],
        # a command with two outputs replaces the first only if it can write the second
        "split": ["split", "--in", src, "--ratio", 0.5, "--seed", 1, "--out-a", first, "--out-b", out],
        "train-bpe": ["train-bpe", "--in", src, "--vocab-size", 30, "--merges-out", first, "--vocab-out", out],
    }[command]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: [{command}] [Errno 2] No such file or directory: '{out}'\n"
    assert first.read_text(encoding="utf-8") == "keep me\n"


def test_filter_command_with_config(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("\n".join(PIPELINE_SIX_LINES) + "\n", encoding="utf-8")
    conf = tmp_path / "filter.conf"
    conf.write_text("[filter]\n# thresholds\nmin_tokens = 4\n", encoding="utf-8")
    out, rej = tmp_path / "kept.txt", tmp_path / "rej.tsv"
    assert run_cli("filter", "--config", conf, "--in", src, "--out", out, "--rejects", rej) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 2  # the duplicate survives filtering
    lines = rej.read_text(encoding="utf-8").splitlines()
    assert sorted(l.split("\t")[0] for l in lines) == ["Html", "Length", "NonLatin", "PunctRun"]
    assert "kept=2" in capsys.readouterr().err


@pytest.mark.parametrize("doc", ["html_patterns =\n", "punct_run_max = 0\n"], ids=["no-html-patterns", "zero-run"])
def test_filter_rejects_bad_config_in_one_line(tmp_path, capsys, doc):
    src = tmp_path / "in.txt"
    src.write_text("\n".join(PIPELINE_SIX_LINES) + "\n", encoding="utf-8")
    conf = tmp_path / "filter.conf"
    conf.write_text("[filter]\n" + doc, encoding="utf-8")
    out, rej = tmp_path / "kept.txt", tmp_path / "rej.tsv"
    assert run_cli("filter", "--config", conf, "--in", src, "--out", out, "--rejects", rej) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad filter config: ") and err.count("\n") == 1
    assert doc.split()[0] in err
    assert not out.exists() and not rej.exists()


def test_filter_names_the_line_of_an_interior_carriage_return(tmp_path, capsys):
    bad = tmp_path / "cr.txt"
    bad.write_bytes(b"ok line\nbroken\rline\n")
    assert run_cli("filter", "--in", bad, "--out", tmp_path / "kept.txt", "--rejects", tmp_path / "rej.tsv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [filter] {bad}:2: record text contains a line terminator")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mode", [[], ["--external-sort"]], ids=["in-memory", "external"])
def test_dedup_names_the_line_of_an_interior_carriage_return(tmp_path, capsys, mode):
    # each input numbers its own lines: the CR is on line 1 of the second file
    good, bad = tmp_path / "good.txt", tmp_path / "cr.txt"
    good.write_bytes(b"one two three four\n")
    bad.write_bytes(b"one two three four\rfive six seven\nsecond line here now\n")
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out.txt"
    out.write_text("keep me\n", encoding="utf-8")
    assert run_cli("dedup", "--in", good, bad, "--out", out, *mode, "--tmp", work) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [dedup] {bad}:1: record text contains a line terminator") and err.count("\n") == 1
    assert os.listdir(work) == ["out.txt"] and out.read_text(encoding="utf-8") == "keep me\n"



@pytest.mark.parametrize("command, outputs", [
    (["split", "--ratio", 0.5, "--seed", 1, "--unit", "document"], ["--out-a", "--out-b"]),
    (["make-nli", "--seed", 1], ["--out"]),
], ids=["split-document", "make-nli"])
def test_article_readers_name_the_line_of_an_interior_carriage_return(tmp_path, capsys, command, outputs):
    bad = tmp_path / "cr.txt"
    bad.write_bytes(b"one two three four\rfive six\nsecond sentence here now\n\n"
                    b"other article line one\nother article line two\n")
    paths = [tmp_path / f"out{i}.txt" for i in range(len(outputs))]
    for path in paths:
        path.write_text("keep me\n", encoding="utf-8")
    flags = [arg for flag, path in zip(outputs, paths) for arg in (flag, path)]
    assert run_cli(*command, "--in", bad, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{command[0]}] {bad}:1: record text contains a line terminator")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["cr.txt", *(p.name for p in paths)]
    assert all(path.read_text(encoding="utf-8") == "keep me\n" for path in paths)


def test_prep_tweets_refuses_a_carriage_return_in_its_label(tmp_path, capsys):
    bad, out = tmp_path / "cr.txt", tmp_path / "out.txt"
    out.write_text("keep me\n", encoding="utf-8")
    # a CR in the label stops the command, and so does one in the text
    for data, line_no, text in [(b"a b c\tneg\nd e\tpo\rs\n", 2, "d e\\tpo\\rs"),
                                (b"a\rb c\tneg\n", 1, "a\\rb c\\tneg")]:
        bad.write_bytes(data)
        assert run_cli("prep-tweets", "--in", bad, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: [prep-tweets] {bad}:{line_no}: record text contains a line terminator: '{text}'\n"
        assert sorted(os.listdir(tmp_path)) == ["cr.txt", "out.txt"]
        assert out.read_text(encoding="utf-8") == "keep me\n"
    # a CR in the trailing whitespace passes the line rule, and is not copied out with the label
    bad.write_bytes(b"a b c\tneg\r\nd e\tpos\r \n")
    assert run_cli("prep-tweets", "--in", bad, "--out", out) == 0
    assert out.read_bytes() == b"a b c\tneg\nd e\tpos\n"


def test_dedup_command_prints_summary(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("a\nb\na\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run_cli("dedup", "--in", src, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "a\nb\n"
    assert "read=3 kept=2 dropped=1" in capsys.readouterr().out


def test_dedup_external_sort_flag(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("x\ny\nx\nz\n" * 10, encoding="utf-8")
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("dedup", "--in", src, "--out", out1) == 0
    assert run_cli("dedup", "--in", src, "--out", out2, "--external-sort", "--tmp", tmp_path) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_split_lines(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("".join(f"linya numero {i}\n" for i in range(10)), encoding="utf-8")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("split", "--in", src, "--ratio", 0.6, "--seed", 7,
                   "--unit", "line", "--out-a", a, "--out-b", b) == 0
    la = a.read_text(encoding="utf-8").splitlines()
    lb = b.read_text(encoding="utf-8").splitlines()
    assert len(la) == 6 and len(lb) == 4
    assert not set(la) & set(lb)


def test_split_lines_ignores_how_the_path_is_spelled(tmp_path, monkeypatch):
    (tmp_path / "a.txt").write_text("".join(f"linya numero {i} dito\n" for i in range(40)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    sides = []
    for n, spelling in enumerate(("a.txt", "./a.txt", tmp_path / "a.txt")):
        a, b = f"a{n}.out", f"b{n}.out"
        assert run_cli("split", "--in", spelling, "--ratio", 0.5, "--seed", 1,
                       "--unit", "line", "--out-a", a, "--out-b", b) == 0
        sides.append((Path(a).read_bytes(), Path(b).read_bytes()))
    assert sides[0] == sides[1] == sides[2]
    assert sides[0][0] and sides[0][1]


def test_split_documents(tmp_path):
    src = tmp_path / "arts.txt"
    blocks = [f"artikulo {i} una\nartikulo {i} ikalawa\n" for i in range(10)]
    src.write_text("\n".join(blocks), encoding="utf-8")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("split", "--in", src, "--ratio", 0.6, "--seed", 3,
                   "--unit", "document", "--out-a", a, "--out-b", b) == 0
    n_a = a.read_text(encoding="utf-8").strip().split("\n\n")
    n_b = b.read_text(encoding="utf-8").strip().split("\n\n")
    assert len(n_a) == 6 and len(n_b) == 4
    assert all(len(block.splitlines()) == 2 for block in n_a + n_b)


# SHA-256 of (side A, side B) from `split --ratio 0.6 --seed 7` on
# _split_pin_input() saved as pinned.txt, per unit. A line is keyed by the
# file's name and its physical line number, which skips the blank lines.
SPLIT_SIDES_SHA256 = {
    "line": ("0910294f8b1a8a71f2cf5171289fa360e56d02ede0354e9f13e76885e33f4f12",
             "113eb1dee786811c7059d10db20e350edb9304a0f32000de8680a0299563a0c6"),
    "document": ("bdfebe7ec799559c3451217ef2bf3446a71bea80ae9c2096bb4f32d86b5e7dc0",
                 "8a21de84b53265db27712da92b999960d1c6e8e4324cd6a0bff61ee03dcd3e48"),
}


def _split_pin_input():
    """Twelve blocks of two to four lines, each followed by one or two blank
    lines; the last block repeats the first line."""
    blocks = [[f"artikulo {i} pangungusap {k}" for k in range(2 + i % 3)] for i in range(12)]
    blocks[-1].append(blocks[0][0])
    return "".join("\n".join(b) + "\n" + "\n" * (1 + i % 2) for i, b in enumerate(blocks))


@pytest.mark.parametrize("unit", sorted(SPLIT_SIDES_SHA256))
def test_split_sides_are_pinned(tmp_path, unit):
    src = tmp_path / "pinned.txt"
    src.write_text(_split_pin_input(), encoding="utf-8")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("split", "--in", src, "--ratio", 0.6, "--seed", 7,
                   "--unit", unit, "--out-a", a, "--out-b", b) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (a, b))
    assert digests == SPLIT_SIDES_SHA256[unit]


def test_split_lines_holds_no_text(tmp_path):
    # Line numbers in an array('Q') and the split's hashes: about 28 B per
    # line. With lines of this length, one record per line peaks at about
    # 250 B, and one str and one int line number per line at about 200 B.
    words = ("maganda", "umaga", "balita", "bayan", "ngayon", "kasama", "paaralan", "lungsod")
    n = 50_000
    src = tmp_path / "in.txt"
    src.write_text("".join(
        f"linya {i} " + " ".join(words[(i + k) % len(words)] for k in range(10)) + "\n" for i in range(n)
    ), encoding="utf-8")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    tracemalloc.start()
    try:
        assert run_cli("split", "--in", src, "--ratio", 0.6, "--seed", 7,
                       "--unit", "line", "--out-a", a, "--out-b", b) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n, f"{peak / n:.1f} B per line"
    assert sorted(a.read_bytes().splitlines() + b.read_bytes().splitlines()) == sorted(src.read_bytes().splitlines())


def _split_reading_back(tmp_path, monkeypatch, capsys, change) -> str:
    """Run a line split whose second reading of its 10-line input gives
    change(records); return the error, after checking that nothing was written."""
    src = tmp_path / "in.txt"
    src.write_text("".join(f"linya numero {i}\n" for i in range(10)), encoding="utf-8")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    reads = []
    real = cli.read_plain_corpus

    def second_reading_changed(f, source_id):
        reads.append(source_id)
        records = list(real(f, source_id))
        return iter(change(records) if len(reads) > 1 else records)

    monkeypatch.setattr(cli, "read_plain_corpus", second_reading_changed)
    assert run_cli("split", "--in", src, "--ratio", 0.6, "--seed", 7,
                   "--unit", "line", "--out-a", a, "--out-b", b) == 1
    assert len(reads) == 2
    assert not a.exists() and not b.exists()
    return capsys.readouterr().err.replace(str(src), "<in>")


def test_split_lines_refuses_an_input_that_reads_back_shorter(tmp_path, monkeypatch, capsys):
    err = _split_reading_back(tmp_path, monkeypatch, capsys, lambda records: records[:-1])
    assert err == "error: [split] <in> reads back 9 non-blank lines, not the 10 of its first reading\n"


def test_split_lines_refuses_an_input_that_reads_back_longer(tmp_path, monkeypatch, capsys):
    err = _split_reading_back(tmp_path, monkeypatch, capsys, lambda records: [*records, ("dagdag", 11)])
    assert err == "error: [split] <in> reads back 11 non-blank lines, not the 10 of its first reading\n"


def test_train_encode_roundtrip(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("low low low low low lower lower newest newest newest "
                      "newest newest newest widest widest widest\n", encoding="utf-8")
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    assert run_cli("train-bpe", "--in", corpus, "--vocab-size", 35,
                   "--merges-out", merges, "--vocab-out", vocab) == 0
    assert merges.exists() and vocab.exists()

    text_in = tmp_path / "text.txt"
    text_in.write_text("lowest newest\n", encoding="utf-8")
    ids_out = tmp_path / "ids.txt"
    assert run_cli("encode", "--merges", merges, "--vocab", vocab,
                   "--in", text_in, "--out", ids_out) == 0
    ids = ids_out.read_text(encoding="utf-8").split()
    assert all(tok.isdigit() for tok in ids)


def test_encode_keeps_one_line_of_ids_per_input_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("low low lower newest newest widest\n", encoding="utf-8")
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    assert run_cli("train-bpe", "--in", corpus, "--vocab-size", 30,
                   "--merges-out", merges, "--vocab-out", vocab) == 0
    text_in = tmp_path / "text.txt"
    ids_out = tmp_path / "ids.txt"
    ids_out.write_text("keep me\n", encoding="utf-8")
    text_in.write_bytes(b"lowest newest\nwidest\rlow\n")  # a lone CR would end a line for another reader
    capsys.readouterr()
    assert run_cli("encode", "--merges", merges, "--vocab", vocab, "--in", text_in, "--out", ids_out) == 1
    assert capsys.readouterr().err.startswith(f"error: [encode] {text_in}:2: record text contains a line terminator")
    assert ids_out.read_text(encoding="utf-8") == "keep me\n"
    text_in.write_bytes(b"lowest newest\r\nwidest low\r\n")  # CRLF endings
    assert run_cli("encode", "--merges", merges, "--vocab", vocab, "--in", text_in, "--out", ids_out) == 0

    plain_in = tmp_path / "plain.txt"
    plain_in.write_text("lowest newest\nwidest low\n", encoding="utf-8")
    plain_out = tmp_path / "plain_ids.txt"
    assert run_cli("encode", "--merges", merges, "--vocab", vocab, "--in", plain_in, "--out", plain_out) == 0
    assert ids_out.read_bytes() == plain_out.read_bytes()


def _train_toy_model(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("low low lower newest newest widest\n", encoding="utf-8")
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    assert run_cli("train-bpe", "--in", corpus, "--vocab-size", 30,
                   "--merges-out", merges, "--vocab-out", vocab) == 0
    return merges, vocab


def _header_only(merges, vocab):
    merges.write_text("#corpuskit-bpe v1\n", encoding="utf-8")
    return merges, 1


def _three_field_merge(merges, vocab):
    merges.write_text(merges.read_text(encoding="utf-8") + "a b c\n", encoding="utf-8")
    return merges, len(merges.read_text(encoding="utf-8").splitlines())


def _duplicate_id(merges, vocab):
    lines = vocab.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("w</w>\t"))
    lines[at] = "w</w>\t" + next(line for line in lines if line.startswith("w\t")).split("\t")[1]
    vocab.write_text("".join(lines), encoding="utf-8")
    return vocab, at + 1


def _duplicate_subword(merges, vocab):
    vocab.write_text(vocab.read_text(encoding="utf-8") + "w\t999\n", encoding="utf-8")
    return vocab, len(vocab.read_text(encoding="utf-8").splitlines())


def _id_not_integer(merges, vocab):
    vocab.write_text(vocab.read_text(encoding="utf-8") + "zz\tten\n", encoding="utf-8")
    return vocab, len(vocab.read_text(encoding="utf-8").splitlines())


def _other_marker(merges, vocab):
    merges.write_text(merges.read_text(encoding="utf-8").replace("marker=</w>", "marker=@@", 1), encoding="utf-8")
    return merges, 1


def _merge_output_missing(merges, vocab):
    lines = vocab.read_text(encoding="utf-8").splitlines(keepends=True)
    vocab.write_text("".join(line for line in lines if not line.startswith("ewest</w>\t")), encoding="utf-8")
    pairs = merges.read_text(encoding="utf-8").splitlines()
    return merges, next(n for n, line in enumerate(pairs, 1) if line.replace(" ", "") == "ewest</w>")


@pytest.mark.parametrize(
    "corrupt", [_header_only, _three_field_merge, _duplicate_id, _duplicate_subword, _id_not_integer,
                _merge_output_missing, _other_marker],
    ids=["header-without-fields", "three-field-merge", "duplicate-id", "duplicate-subword", "id-not-integer",
         "merge-output-missing", "other-marker"])
def test_encode_refuses_a_malformed_model_in_one_line(tmp_path, capsys, corrupt):
    merges, vocab = _train_toy_model(tmp_path)
    bad_file, line_no = corrupt(merges, vocab)
    text_in = tmp_path / "text.txt"
    text_in.write_text("lowest\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("encode", "--merges", merges, "--vocab", vocab, "--in", text_in,
                   "--out", tmp_path / "ids.txt") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [encode] {bad_file}:{line_no}: ") and err.count("\n") == 1, err


_UTF8_CASES = ["train-bpe", "encode", "encode-vocab", "prep-tweets", "encode-labels", "ingest-plain", "ingest-tsv",
               "ingest-paired-source", "ingest-paired-target", "filter", "filter-config", "dedup", "dedup-external",
               "split-line", "split-document", "make-nli", "build-config", "stats"]


@pytest.mark.parametrize("command", _UTF8_CASES)
def test_invalid_utf8_names_the_file_and_line(tmp_path, capsys, command):
    merges, vocab = _train_toy_model(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0,0,0,0,0\nlow \xff\t1\n")
    good = tmp_path / "good.txt"
    good.write_bytes(b"one two three four\nfive six seven eight\n")
    if command == "encode-vocab":  # line 2 of the model's vocabulary file
        bad.write_bytes(vocab.read_bytes().replace(b"\n", b"\n\xff", 1))
    if command in ("filter-config", "build-config"):  # the config is parsed as it is read, so line 1 must parse
        bad.write_bytes(b"# 0,0,0,0,0\nlow \xff\t1\n")
    out = tmp_path / "out.txt"
    argv = {
        "train-bpe": ["train-bpe", "--in", bad, "--vocab-size", 30,
                      "--merges-out", tmp_path / "m2.txt", "--vocab-out", tmp_path / "v2.txt"],
        "encode": ["encode", "--in", bad, "--merges", merges, "--vocab", vocab, "--out", out],
        "encode-vocab": ["encode", "--in", good, "--merges", merges, "--vocab", bad, "--out", out],
        "prep-tweets": ["prep-tweets", "--in", bad, "--out", out],
        "encode-labels": ["encode-labels", "--in", bad, "--out", out],
        "ingest-plain": ["ingest", bad, "--source-id", "web", "--out", out],
        "ingest-tsv": ["ingest", bad, "--format", "tsv", "--source-id", "cc", "--out", out],
        "ingest-paired-source": ["ingest", bad, good, "--format", "paired", "--source-id", "par", "--out", out],
        "ingest-paired-target": ["ingest", good, bad, "--format", "paired", "--source-id", "par", "--out", out],
        "filter": ["filter", "--in", bad, "--out", out, "--rejects", tmp_path / "rej.tsv"],
        "filter-config": ["filter", "--config", bad, "--in", good, "--out", out, "--rejects", tmp_path / "rej.tsv"],
        # each file numbers its own lines: the bad line is line 2 of the second input
        "dedup": ["dedup", "--in", good, bad, "--out", out],
        "dedup-external": ["dedup", "--in", good, bad, "--out", out, "--external-sort", "--tmp", tmp_path],
        "split-line": ["split", "--in", bad, "--ratio", 0.5, "--seed", 1, "--unit", "line",
                       "--out-a", out, "--out-b", tmp_path / "b.txt"],
        "split-document": ["split", "--in", bad, "--ratio", 0.5, "--seed", 1, "--unit", "document",
                           "--out-a", out, "--out-b", tmp_path / "b.txt"],
        "make-nli": ["make-nli", "--in", bad, "--seed", 1, "--out", out],
        "build-config": ["build", "--config", bad],
        "stats": ["stats", "--in", bad],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid UTF-8 in source '{bad}' at line 2: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["ingest", "filter", "dedup", "dedup-external", "encode", "prep-tweets",
                                     "encode-labels"])
def test_a_failed_command_keeps_earlier_outputs(tmp_path, command):
    merges, vocab = _train_toy_model(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"one two three four\nbroken \xff line here\n")
    work = tmp_path / "work"
    work.mkdir()
    out, rej = work / "kept.txt", work / "rej.tsv"
    for path in (out, rej):
        path.write_text("keep me\n", encoding="utf-8")
    argv = {
        "ingest": ["ingest", bad],
        "filter": ["filter", "--in", bad, "--rejects", rej],
        "dedup": ["dedup", "--in", bad],
        "dedup-external": ["dedup", "--in", bad, "--external-sort", "--tmp", work],
        "encode": ["encode", "--in", bad, "--merges", merges, "--vocab", vocab],
        "prep-tweets": ["prep-tweets", "--in", bad],
        "encode-labels": ["encode-labels", "--in", bad],
    }[command]
    assert run_cli(*argv, "--out", out) == 1
    assert sorted(os.listdir(work)) == ["kept.txt", "rej.tsv"]
    assert out.read_text(encoding="utf-8") == rej.read_text(encoding="utf-8") == "keep me\n"


# Every command that reads input lines, run on {src}: five label columns a
# row, which every one of them reads, or the rows in _READER_ROWS. {other} is
# a clean second input.
_LINE_READERS = {
    "ingest-plain": ["ingest", "{src}", "--out", "{work}/a.txt"],
    "ingest-tsv": ["ingest", "{src}", "--format", "tsv", "--out", "{work}/a.txt"],
    # the chosen side is the target, so the first case reads {src} as the side it drops
    "ingest-paired-source": ["ingest", "{src}", "{other}", "--format", "paired", "--out", "{work}/a.txt"],
    "ingest-paired-target": ["ingest", "{other}", "{src}", "--format", "paired", "--out", "{work}/a.txt"],
    "filter": ["filter", "--in", "{src}", "--out", "{work}/a.txt", "--rejects", "{work}/b.txt"],
    "filter-config": ["filter", "--config", "{src}", "--in", "{other}", "--out", "{work}/a.txt",
                      "--rejects", "{work}/b.txt"],
    "dedup": ["dedup", "--in", "{other}", "{src}", "--out", "{work}/a.txt"],
    "dedup-external": ["dedup", "--in", "{other}", "{src}", "--out", "{work}/a.txt", "--external-sort",
                       "--tmp", "{work}"],
    "split-line": ["split", "--in", "{src}", "--ratio", "0.5", "--seed", "1", "--unit", "line",
                   "--out-a", "{work}/a.txt", "--out-b", "{work}/b.txt"],
    "split-document": ["split", "--in", "{src}", "--ratio", "0.5", "--seed", "1", "--unit", "document",
                       "--out-a", "{work}/a.txt", "--out-b", "{work}/b.txt"],
    "make-nli": ["make-nli", "--in", "{src}", "--seed", "1", "--out", "{work}/a.txt"],
    "train-bpe": ["train-bpe", "--in", "{src}", "--vocab-size", "12",
                  "--merges-out", "{work}/a.txt", "--vocab-out", "{work}/b.txt"],
    "encode": ["encode", "--in", "{src}", "--merges", "{merges}", "--vocab", "{vocab}", "--out", "{work}/a.txt"],
    "prep-tweets": ["prep-tweets", "--in", "{src}", "--out", "{work}/a.txt"],
    "encode-labels": ["encode-labels", "--in", "{src}", "--out", "{work}/a.txt"],
    "build": ["build", "--config", "{config}"],
    "build-config": ["build", "--config", "{src}"],
    "stats": ["stats", "--in", "{src}"],
}
_READER_ROWS = {
    "filter-config": ["[filter]", "# thresholds", "min_tokens = 1", "max_tokens = 3"],
    "build-config": ["[pipeline]", "output_dir = {work}", "[source.web]", "path = {other}"],
    "stats": ['{{"stage": "ingest", "source_id": "web", "lines_in": 3, "lines_out": 3}}',
              '{{"stage": "filter", "source_id": "web", "lines_in": 3, "lines_out": 1, "rejects": {{"length": 2}}}}',
              '{{"stage": "dedup", "source_id": "*", "lines_in": 1, "lines_out": 1}}'],
}


@pytest.mark.parametrize("command", _LINE_READERS)
def test_every_line_reader_takes_crlf_and_refuses_a_lone_cr(tmp_path, capsys, command):
    merges, vocab = _train_toy_model(tmp_path)
    other = tmp_path / "other.txt"
    other.write_bytes(b"1,0,1,0,1\n0,1,1,0,0\n1,1,1,1,1\n")
    rows = _READER_ROWS.get(command, ["1,0,1,0,1", "0,1,1,0,0", "1,1,1,1,1"])

    def run(name, ends):
        src, work = tmp_path / name / "in.txt", tmp_path / name / "work"
        work.mkdir(parents=True, exist_ok=True)
        config = tmp_path / name / "build.ini"
        config.write_text(f"[pipeline]\noutput_dir = {work}\n[source.web]\npath = {src}\n", encoding="utf-8")
        paths = dict(src=src, other=other, work=work, merges=merges, vocab=vocab, config=config)
        lines = [row.format(**paths) for row in rows]
        src.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
        code = run_cli(*(arg.format(**paths) for arg in _LINE_READERS[command]))
        return src, lines, code, {p.name: p.read_bytes() for p in work.iterdir()}

    *_, code, lf = run("lf", ["\n"] * len(rows))
    assert code == 0
    *_, code, crlf = run("crlf", ["\r\n"] * len(rows))
    assert code == 0
    # the same outputs, but for the build's byte counts
    assert {n: b for n, b in crlf.items() if not n.startswith("stats")} == {
        n: b for n, b in lf.items() if not n.startswith("stats")}
    capsys.readouterr()
    # a lone CR ends line 2 and leaves the outputs of the CRLF run as they were
    src, lines, code, after = run("crlf", ["\n", "\r"] + ["\n"] * (len(rows) - 2))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [") and err.count("\n") == 1
    assert err.endswith(f" {src}:2: record text contains a line terminator: {lines[1] + chr(13) + lines[2]!r}\n"), err
    assert after == crlf


def test_external_dedup_leaves_its_spill_directory_empty(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("x\ny\nx\n" * 5, encoding="utf-8")
    assert run_cli("dedup", "--in", src, "--out", out, "--external-sort", "--tmp", spill) == 0
    assert out.read_text(encoding="utf-8") == "x\ny\n"
    assert os.listdir(spill) == []
    src.write_bytes(b"x\ny\n\xff\n")  # invalid UTF-8 stops pass 1
    assert run_cli("dedup", "--in", src, "--out", out, "--external-sort", "--tmp", spill) == 1
    assert os.listdir(spill) == []
    assert out.read_text(encoding="utf-8") == "x\ny\n"


def test_outputs_are_written_through_symlinks_and_devices(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("one two three four\n<b>x</b> y z w\n", encoding="utf-8")
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("previous\n", encoding="utf-8")
    link.symlink_to(target)
    assert run_cli("filter", "--in", src, "--out", link, "--rejects", os.devnull) == 0
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "one two three four\n"
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not [name for name in os.listdir(os.path.dirname(os.devnull)) if name.startswith(".corpuskit-")]


def test_a_replaced_output_keeps_its_permissions(tmp_path):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("a b c d\n", encoding="utf-8")
    out.write_text("previous\n", encoding="utf-8")
    out.chmod(0o640)
    assert run_cli("ingest", src, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "a b c d\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_a_new_output_gets_the_umask_default_mode(tmp_path):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("a b c d\n", encoding="utf-8")
    with umask(0o002):
        assert run_cli("ingest", src, "--out", out) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o664


# Each command's outputs, in the order the command commits them.
_COMMITS = {
    "filter": (["filter"], ["--out", "--rejects"]),
    "split": (["split", "--ratio", 0.5, "--seed", 1, "--unit", "line"], ["--out-a", "--out-b"]),
    "train-bpe": (["train-bpe", "--vocab-size", 35], ["--merges-out", "--vocab-out"]),
}


@pytest.mark.parametrize("command, k", [(command, k) for command in _COMMITS for k in (1, 2)])
def test_a_failed_commit_keeps_every_later_output(tmp_path, monkeypatch, capsys, command, k):
    src = tmp_path / "in.txt"
    src.write_text("low low lower newest newest widest\n<b>low</b> lower newest widest\n", encoding="utf-8")
    argv, flags = _COMMITS[command]

    def run(outs):
        return run_cli(*argv, "--in", src, *(arg for flag, path in zip(flags, outs) for arg in (flag, path)))

    fresh = [tmp_path / f"fresh{i}.txt" for i in range(len(flags))]
    assert run(fresh) == 0
    work = tmp_path / "work"
    work.mkdir()
    outs = [work / f"out{i}.txt" for i in range(len(flags))]
    for path in outs:
        path.write_text("old\n", encoding="utf-8")
    fail_on_replace(monkeypatch, k)
    capsys.readouterr()
    assert run(outs) == 1
    assert f"injected replace failure: '{outs[k - 1]}'" in capsys.readouterr().err
    new, old = outs[:k - 1], outs[k - 1:]
    assert [path.read_bytes() for path in new] == [path.read_bytes() for path in fresh[:k - 1]]
    assert all(path.read_text(encoding="utf-8") == "old\n" for path in old)
    assert sorted(os.listdir(work)) == [path.name for path in outs]


def test_encode_refuses_the_pair_a_failed_vocab_commit_leaves(tmp_path, monkeypatch, capsys):
    merges, vocab = _train_toy_model(tmp_path)  # vocab size 30
    # A retraining whose vocabulary move fails leaves new merges beside the old
    # vocabulary: 10 merges beside 30 entries, then 5 merges beside 35 entries.
    stray = f"{vocab}:31: 'low</w>' is no special, character or merge in {merges}"  # the 6th merge output
    for new_size, n_vocab, detail in [(35, 30, f"is missing from {vocab}"), (30, 35, stray)]:
        fail_on_replace(monkeypatch, 2)
        assert run_cli("train-bpe", "--in", tmp_path / "corpus.txt", "--vocab-size", new_size,
                       "--merges-out", merges, "--vocab-out", vocab) == 1
        monkeypatch.undo()
        assert len(vocab.read_text(encoding="utf-8").splitlines()) == n_vocab
        capsys.readouterr()
        assert run_cli("encode", "--merges", merges, "--vocab", vocab,
                       "--in", tmp_path / "corpus.txt", "--out", tmp_path / "ids.txt") == 1
        assert detail in capsys.readouterr().err
        assert run_cli("train-bpe", "--in", tmp_path / "corpus.txt", "--vocab-size", 35,
                       "--merges-out", merges, "--vocab-out", vocab) == 0  # a matching pair again


def test_python_dash_m_runs_the_cli(tmp_path):
    merges, vocab = _train_toy_model(tmp_path)
    text_in = tmp_path / "text.txt"
    text_in.write_text("lowest newest\nwidest low\n", encoding="utf-8")
    assert run_cli("encode", "--merges", merges, "--vocab", vocab, "--in", text_in, "--out", tmp_path / "a.txt") == 0
    env = dict(os.environ, PYTHONPATH=str(Path(corpuskit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "corpuskit", "encode", "--merges", merges, "--vocab", vocab,
                           "--in", text_in, "--out", tmp_path / "b.txt"], env=env, capture_output=True, text=True,
                          encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "a.txt").read_bytes()


def test_prep_tweets_keeps_one_row_per_input_line(tmp_path, capsys):
    src = tmp_path / "tweets.tsv"
    src.write_bytes(b"great game @bob see you\t1\r\nplain text here\t0\r\n")
    out = tmp_path / "out.tsv"
    assert run_cli("prep-tweets", "--in", src, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "great game [MENTION] see you\t1\nplain text here\t0\n"
    src.write_bytes(b"great game @bob\rsee you\t1\nplain text here\t0\r\n")  # a lone CR is not a row break
    assert run_cli("prep-tweets", "--in", src, "--out", out) == 1
    assert f"{src}:1: record text contains a line terminator" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "great game [MENTION] see you\t1\nplain text here\t0\n"


def test_prep_tweets(tmp_path):
    src = tmp_path / "tweets.tsv"
    src.write_text("RT : @user check http://x.co &amp; reply\t1\nplain text here\t0\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run_cli("prep-tweets", "--in", src, "--out", out) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "RT: [MENTION] check [LINK] & reply\t1"
    assert lines[1] == "plain text here\t0"


def test_encode_labels(tmp_path):
    src = tmp_path / "labels.csv"
    src.write_text("1,1,0,1,1\n0,0,0,0,0\n1,1,1,1,1\n", encoding="utf-8")
    out = tmp_path / "classes.csv"
    assert run_cli("encode-labels", "--in", src, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "27\n0\n31\n"


def test_encode_labels_rejects_bad_rows(tmp_path, capsys):
    src = tmp_path / "labels.csv"
    src.write_text("1,2,0,1,1\n", encoding="utf-8")
    out = tmp_path / "classes.csv"
    assert run_cli("encode-labels", "--in", src, "--out", out) == 1
    assert "binary" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,2,0,1,1", "1,1"], ids=["not-binary", "too-few"])
def test_encode_labels_names_the_line_of_a_bad_row(tmp_path, capsys, row):
    src = tmp_path / "labels.csv"
    src.write_text(f"0,0,0,0,0\n{row}\n", encoding="utf-8")
    out = tmp_path / "classes.csv"
    assert run_cli("encode-labels", "--in", src, "--out", out) == 1
    assert f"{src}:2: expected 5 binary columns" in capsys.readouterr().err


def test_encode_labels_keeps_one_row_per_physical_line(tmp_path, capsys):
    src = tmp_path / "labels.csv"
    src.write_bytes(b"1,1,0,1,1\r\n0,0,0,0,0\r\n")
    out = tmp_path / "classes.csv"
    assert run_cli("encode-labels", "--in", src, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == "27\n0\n"
    capsys.readouterr()
    # a lone CR is not a line break: line 1 is refused, not read as two rows
    src.write_bytes(b"1,1,0,1,1\r0,0,0,0,0\n1,1,1,1,1\n")
    assert run_cli("encode-labels", "--in", src, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{src}:1: record text contains a line terminator" in err and err.count("\n") == 1
    assert out.read_text(encoding="utf-8") == "27\n0\n"


def test_make_nli(tmp_path):
    src = tmp_path / "arts.txt"
    src.write_text(
        "unang balita dito\npangalawang pangungusap nito\n\n"
        "ibang artikulo naman\nkasunod na linya yan\n",
        encoding="utf-8",
    )
    out = tmp_path / "pairs.tsv"
    assert run_cli("make-nli", "--in", src, "--seed", 11, "--out", out) == 0
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
    assert all(len(r) == 3 for r in rows)
    labels = [r[2] for r in rows]
    assert labels.count("entailment") == labels.count("contradiction") == 2

    out2 = tmp_path / "pairs2.tsv"
    run_cli("make-nli", "--in", src, "--seed", 11, "--out", out2)
    assert out.read_bytes() == out2.read_bytes()


def test_build_and_stats_commands(tmp_path, capsys):
    src = tmp_path / "src.txt"
    src.write_text("\n".join(PIPELINE_SIX_LINES) + "\n", encoding="utf-8")
    conf = tmp_path / "build.ini"
    conf.write_text(
        f"[pipeline]\noutput_dir = {tmp_path / 'out'}\nseed = 4\n\n"
        f"[source.mixed]\npath = {src}\nformat = plain\n",
        encoding="utf-8",
    )
    assert run_cli("build", "--config", conf) == 0
    assert "kept 1 / 6 (16.7%)" in capsys.readouterr().out

    assert run_cli("stats", "--in", tmp_path / "out" / "stats.jsonl") == 0
    assert "kept 1 / 6 (16.7%)" in capsys.readouterr().out


def test_build_reports_config_problems(tmp_path, capsys):
    conf = tmp_path / "build.ini"
    conf.write_text(
        f"[pipeline]\noutput_dir = {tmp_path / 'out'}\n\n"
        f"[source.gone]\npath = {tmp_path / 'missing.txt'}\n",
        encoding="utf-8",
    )
    assert run_cli("build", "--config", conf) == 1
    err = capsys.readouterr().err
    assert "[config]" in err and "does not exist" in err


def test_unreadable_config_is_a_parse_error(tmp_path, capsys):
    conf = tmp_path / "broken.ini"
    conf.write_text("[pipeline\noutput_dir = x\n", encoding="utf-8")
    assert run_cli("build", "--config", conf) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("doc, fragment", [
    ("[tokeniser]\nvocab_size = 30\n", "[tokeniser]"),
    ("[source.web]\npath = {src}\nformt = tsv\n", "'formt'"),
    ("[source.web]\nformat = plain\n", "[source.web]"),
    ("seed = x\n[source.web]\npath = {src}\n", "option 'seed' in [pipeline]"),
], ids=["unknown-section", "unknown-option", "no-path", "bad-value"])
def test_build_rejects_bad_config_in_one_line(tmp_path, capsys, doc, fragment):
    src = tmp_path / "src.txt"
    src.write_text("\n".join(PIPELINE_SIX_LINES) + "\n", encoding="utf-8")
    conf = tmp_path / "build.ini"
    conf.write_text(f"[pipeline]\noutput_dir = {tmp_path / 'out'}\n" + doc.format(src=src), encoding="utf-8")
    assert run_cli("build", "--config", conf) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [build] {conf}: ") and err.count("\n") == 1
    assert fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ("min_tokens = 3\n", "File contains no section headers. file: '{conf}', line: 1 'min_tokens = 3\\n'"),
    ("[filter]\nnot a pair\n", "Source contains parsing errors: '{conf}' [line  2]: 'not a pair\\n'"),
    ("[filter]\nmin_tokens = 3\nmin_tokens = 4\n",
     "While reading from '{conf}' [line  3]: option 'min_tokens' in section 'filter' already exists"),
    ("[filter]\nmin_tokenz = 3\n", "{conf}: unknown filter option 'min_tokenz' in [filter]"),
    # U+0085 is whitespace inside a line, so the value runs to the LF
    ("[filter]\nmin_tokens = 1\x85max_tokens = 3\n", "{conf}: bad value for filter option 'min_tokens' in [filter]: "
                                                     "invalid literal for int() with base 10: '1\\x85max_tokens = 3'"),
], ids=["no-section-header", "malformed-line", "repeated-option", "unknown-option", "next-line-in-a-value"])
@pytest.mark.parametrize("command", ["filter", "build"])
def test_filter_and_build_refuse_a_config_alike(tmp_path, capsys, command, doc, message):
    src = tmp_path / "in.txt"
    src.write_text("\n".join(PIPELINE_SIX_LINES) + "\n", encoding="utf-8")
    conf = tmp_path / "build.ini"
    conf.write_text(doc, encoding="utf-8")
    out = tmp_path / "kept.txt"
    argv = {"filter": ["filter", "--config", conf, "--in", src, "--out", out, "--rejects", tmp_path / "rej.tsv"],
            "build": ["build", "--config", conf]}[command]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: [{command}] {message.format(conf=conf)}\n"
    assert sorted(os.listdir(tmp_path)) == ["build.ini", "in.txt"]


def test_build_refuses_a_config_without_sources(tmp_path, capsys):
    conf = tmp_path / "filter.ini"
    conf.write_text(f"[pipeline]\noutput_dir = {tmp_path / 'out'}\n[filter]\nmin_tokens = 3\n", encoding="utf-8")
    assert run_cli("build", "--config", conf) == 1
    assert capsys.readouterr().err == (
        f"error: [build] {conf}: no [source.<id>] section, so there is nothing to build\n")
    assert sorted(os.listdir(tmp_path)) == ["filter.ini"]


def test_cli_chain_reproduces_the_build_with_its_own_config(tmp_path):
    """ingest -> filter --config build.ini -> dedup gives the build's
    corpus.txt and rejects.tsv when the build has no split."""
    src = tmp_path / "web.txt"
    src.write_text("isa dalawa tatlo apat lima\n\none two three four\nvisit http://example.com for more info\n"
                   "isa dalawa tatlo apat lima\nwow!!! this is so great\nang bahay ay malaki at maganda\n",
                   encoding="utf-8")
    conf = tmp_path / "build.ini"
    conf.write_text(f"[pipeline]\noutput_dir = {tmp_path / 'out'}\n[filter]\nmin_tokens = 5\n"
                    f"[source.web]\npath = {src}\n", encoding="utf-8")
    assert run_cli("build", "--config", conf) == 0
    ingested, kept, rej, unique = (tmp_path / name for name in ("ingested.txt", "kept.txt", "rej.tsv", "unique.txt"))
    assert run_cli("ingest", src, "--out", ingested) == 0
    assert run_cli("filter", "--config", conf, "--in", ingested, "--out", kept, "--rejects", rej) == 0
    assert run_cli("dedup", "--in", kept, "--out", unique) == 0
    assert unique.read_bytes() == (tmp_path / "out" / "corpus.txt").read_bytes()
    assert rej.read_bytes() == (tmp_path / "out" / "rejects.tsv").read_bytes()
    # the four-token line passes the default min_tokens = 4, so the config was read
    assert rej.read_text(encoding="utf-8").splitlines()[0] == "Length\tone two three four"
    assert unique.read_text(encoding="utf-8").count("\n") == 2 and rej.read_text(encoding="utf-8").count("\n") == 3


@pytest.mark.parametrize("bad", ["{}", "[1]", '{"stage": "x", "source_id": "y", "bogus": 1}', "not json",
                                 '{"stage": "x", "source_id": "y", "rejects": 5}',
                                 '{"stage": "x", "source_id": "y", "extra": {"side_a": "3"}}',
                                 '{"stage": 1, "source_id": "y"}',
                                 '{"stage": "x", "source_id": null}',
                                 '{"stage": "x", "source_id": "y", "lines_in": true, "lines_out": true}',
                                 '{"stage": "x", "source_id": "y", "lines_in": 1.0, "lines_out": 1}'],
                         ids=["missing-fields", "not-an-object", "unknown-field", "not-json",
                              "rejects-not-object", "extra-not-integers", "stage-not-string",
                              "source-id-null", "bool-count", "float-count"])
def test_stats_rejects_malformed_report(tmp_path, capsys, bad):
    report = tmp_path / "stats.jsonl"
    report.write_text('{"stage": "ingest", "source_id": "s", "lines_in": 1, "lines_out": 1}\n' + bad + "\n",
                      encoding="utf-8")
    assert run_cli("stats", "--in", report) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [stats] {report}: line 2: ") and err.count("\n") == 1


def test_stats_names_the_file_of_an_inconsistent_report(tmp_path, capsys):
    report = tmp_path / "stats.jsonl"
    report.write_text('{"stage": "ingest", "source_id": "web", "lines_in": 3, "lines_out": 2}\n', encoding="utf-8")
    assert run_cli("stats", "--in", report) == 1
    assert capsys.readouterr().err == (f"error: [stats] {report}: inconsistent stats: stage 'ingest' source 'web': "
                                       "lines_in=3 but out+rejects+dropped=2\n")
