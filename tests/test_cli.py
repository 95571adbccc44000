import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import corpuskit
from corpuskit.cli import main

from fixtures import PIPELINE_SIX_LINES


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
    conf.write_text("# thresholds\nmin_tokens = 4\n", encoding="utf-8")
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
    conf.write_text(doc, encoding="utf-8")
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


def test_encode_keeps_one_line_of_ids_per_input_line(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("low low lower newest newest widest\n", encoding="utf-8")
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    assert run_cli("train-bpe", "--in", corpus, "--vocab-size", 30,
                   "--merges-out", merges, "--vocab-out", vocab) == 0
    text_in = tmp_path / "text.txt"
    text_in.write_bytes(b"lowest\rnewest\nwidest low\r\n")  # a lone CR inside a line, then a CRLF ending
    ids_out = tmp_path / "ids.txt"
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


_UTF8_CASES = ["train-bpe", "encode", "prep-tweets", "encode-labels", "ingest-plain", "ingest-tsv",
               "ingest-paired-source", "ingest-paired-target", "filter", "dedup", "dedup-external",
               "split-line", "split-document", "make-nli"]


@pytest.mark.parametrize("command", _UTF8_CASES)
def test_invalid_utf8_names_the_file_and_line(tmp_path, capsys, command):
    merges, vocab = _train_toy_model(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0,0,0,0,0\nlow \xff\t1\n")
    good = tmp_path / "good.txt"
    good.write_bytes(b"one two three four\nfive six seven eight\n")
    out = tmp_path / "out.txt"
    argv = {
        "train-bpe": ["train-bpe", "--in", bad, "--vocab-size", 30,
                      "--merges-out", tmp_path / "m2.txt", "--vocab-out", tmp_path / "v2.txt"],
        "encode": ["encode", "--in", bad, "--merges", merges, "--vocab", vocab, "--out", out],
        "prep-tweets": ["prep-tweets", "--in", bad, "--out", out],
        "encode-labels": ["encode-labels", "--in", bad, "--out", out],
        "ingest-plain": ["ingest", bad, "--source-id", "web", "--out", out],
        "ingest-tsv": ["ingest", bad, "--format", "tsv", "--source-id", "cc", "--out", out],
        "ingest-paired-source": ["ingest", bad, good, "--format", "paired", "--source-id", "par", "--out", out],
        "ingest-paired-target": ["ingest", good, bad, "--format", "paired", "--source-id", "par", "--out", out],
        "filter": ["filter", "--in", bad, "--out", out, "--rejects", tmp_path / "rej.tsv"],
        # each file numbers its own lines: the bad line is line 2 of the second input
        "dedup": ["dedup", "--in", good, bad, "--out", out],
        "dedup-external": ["dedup", "--in", good, bad, "--out", out, "--external-sort", "--tmp", tmp_path],
        "split-line": ["split", "--in", bad, "--ratio", 0.5, "--seed", 1, "--unit", "line",
                       "--out-a", out, "--out-b", tmp_path / "b.txt"],
        "split-document": ["split", "--in", bad, "--ratio", 0.5, "--seed", 1, "--unit", "document",
                           "--out-a", out, "--out-b", tmp_path / "b.txt"],
        "make-nli": ["make-nli", "--in", bad, "--seed", 1, "--out", out],
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


def test_prep_tweets_keeps_one_row_per_input_line(tmp_path):
    src = tmp_path / "tweets.tsv"
    src.write_bytes(b"great game @bob\rsee you\t1\nplain text here\t0\r\n")
    out = tmp_path / "out.tsv"
    assert run_cli("prep-tweets", "--in", src, "--out", out) == 0
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
    # a lone CR is not a line break: line 1 is one malformed row, not two rows
    src = tmp_path / "labels.csv"
    src.write_bytes(b"1,1,0,1,1\r0,0,0,0,0\n1,1,1,1,1\n")
    out = tmp_path / "classes.csv"
    assert run_cli("encode-labels", "--in", src, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{src}:1: expected 5 binary columns" in err and err.count("\n") == 1


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
    assert err.startswith("error: [build] ") and err.count("\n") == 1
    assert fragment in err
    assert not (tmp_path / "out").exists()


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
    assert err.startswith("error: [stats] line 2: ") and err.count("\n") == 1
