"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them). Expected values come from the
independent oracles in oracles.py or from hand-derived fixtures.
"""

import hashlib
import random
import time

from corpuskit import bpe, cli, split
from corpuskit.core import SentenceRecord
from corpuskit.dedup import dedup_files, dedup_key, dedup_lines
from corpuskit.filters import (
    FilterConfig,
    apply_filters,
    filter_avg_word_len,
    filter_html,
    filter_length,
    filter_non_latin,
    filter_punct_run,
)
from corpuskit.labels import decode_label_flags, encode_label_flags
from corpuskit.nli import NliLabel, make_nli_pairs
from corpuskit.pipeline import stats_from_jsonl
from corpuskit.split import SplitConfig, SplitUnit, assign_split, split_articles, split_corpus
from corpuskit.tweets import preprocess_tweet

import oracles
from fixtures import TWEET_CASES, by_source, filter_boundary_fixture, picked

CFG = FilterConfig()


def _report(n: int, elapsed: float, description: str):
    print(f"\nACCEPTANCE {n} PASS ({elapsed:.2f}s): {description}")


# -- 1 -------------------------------------------------------------------------

def test_acceptance_1_filter_threshold_conformance():
    rows = filter_boundary_fixture()
    assert len(rows) == 200
    t0 = time.perf_counter()
    lib = {
        "non_latin": filter_non_latin,
        "length": filter_length,
        "punct": filter_punct_run,
        "awl": filter_avg_word_len,
        "html": filter_html,
    }
    oracle = {
        "non_latin": lambda t: oracles.non_latin_ok(t, CFG.nonlatin_max_ratio),
        "length": lambda t: oracles.length_ok(t, CFG.min_tokens, CFG.max_tokens),
        "punct": lambda t: oracles.punct_run_ok(t, CFG.punct_run_max),
        "awl": lambda t: oracles.awl_ok(t, CFG.awl_min, CFG.awl_max),
        "html": lambda t: oracles.html_ok(t, CFG.html_patterns),
    }
    agreements = 0
    for row in rows:
        for name in lib:
            assert lib[name](row.text, CFG).passed == oracle[name](row.text), (name, row.text)
        composed = apply_filters(row.text, CFG).reason.value
        assert composed == oracles.first_reject_reason(row.text, CFG) == row.composed, row.text
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert agreements == 200
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, elapsed, "200/200 fixture verdicts match the naive oracle")


# -- 2 -------------------------------------------------------------------------

def _dedup_input(n=10_000):
    rng = random.Random(48151623)
    vocab = ["balita", "bayan", "araw", "gabi", "ulan", "hangin", "dagat", "bundok"]
    lines = []
    for i in range(n):
        if lines and rng.random() < 0.35:
            lines.append(rng.choice(lines))
        else:
            lines.append(" ".join(rng.choice(vocab) for _ in range(rng.randrange(4, 10))) + f" {i}")
    return lines


def test_acceptance_2_dedup_correctness(tmp_path):
    texts = _dedup_input()
    t0 = time.perf_counter()

    src = tmp_path / "rand.txt"
    src.write_text("\n".join(texts) + "\n", encoding="utf-8")
    mem_out, ext_out, again = tmp_path / "mem.txt", tmp_path / "ext.txt", tmp_path / "again.txt"
    dedup_lines([src], mem_out)
    assert mem_out.read_text(encoding="utf-8").splitlines() == oracles.dedup_keep_first(texts)
    dedup_lines([mem_out], again)
    assert again.read_bytes() == mem_out.read_bytes()  # idempotent
    dedup_files([src], ext_out, tmp_dir=tmp_path, chunk_lines=1000)
    assert ext_out.read_bytes() == mem_out.read_bytes()

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, elapsed, "10k-line dedup equals the seen-set oracle; modes agree")


# -- 3 -------------------------------------------------------------------------

_SYLLABLES = ["ka", "ma", "ta", "po", "si", "na", "ba", "la", "nga", "in", "an", "um", "pag", "di"]


def _make_corpus(target_bytes: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    lines = []
    total = 0
    while total < target_bytes:
        words = []
        for _ in range(rng.randrange(6, 13)):
            w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randrange(2, 5)))
            if rng.random() < 0.15:
                w = w.capitalize()
            words.append(w)
        line = " ".join(words)
        lines.append(line)
        total += len(line) + 1
    return lines


def test_acceptance_3_bpe_exactness():
    t0 = time.perf_counter()

    # merge-for-merge agreement with the quadratic reference on the toy corpus
    toy_counts = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    toy_lines = [w for w, n in toy_counts.items() for _ in range(n)]
    base = len(bpe.DEFAULT_SPECIALS) + 2 * len(set("".join(toy_counts)))
    toy = bpe.learn_bpe(toy_lines, bpe.TokenizerConfig(vocab_size=base + 10))
    assert toy.merges[0] == ("e", "s")
    assert toy.merges == oracles.quadratic_bpe_merges(toy_counts, 10)

    # exact vocabulary size at desk scale: vocab_size=500 on a ~1 MB corpus
    corpus = _make_corpus(1_000_000, seed=99)
    model = bpe.learn_bpe(corpus, bpe.TokenizerConfig(vocab_size=500))
    assert len(model.vocab) == 500
    # its 443 merges, pinned against the trainer that keyed pairs by tuple
    # and pushed a heap entry on every count change
    merges = "".join(f"{a} {b}\n" for a, b in model.merges).encode()
    assert hashlib.sha256(merges).hexdigest() == "41c37d726870aec717ce47aafefd27721aed83ee5357320d379827cc4d057abe"

    # decode(encode(x)) identity on fully covered text, mixed case included
    for text in corpus[:200]:
        assert bpe.decode(model, bpe.encode(model, text)) == text
    mixed = "Kamana Pagdi Potala Nganga kasi"
    covered = set("".join(corpus).replace(" ", ""))
    assert set(mixed.replace(" ", "")) <= covered
    assert bpe.decode(model, bpe.encode(model, mixed)) == mixed
    assert bpe.encode(model, "Kamana") != bpe.encode(model, "kamana")

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(3, elapsed, "toy merges match the reference; |vocab|=500 exact; round trip holds")


# -- 4 -------------------------------------------------------------------------

def test_acceptance_4_label_bijection():
    t0 = time.perf_counter()
    assert encode_label_flags((1, 1, 0, 1, 1)) == 27
    for value in range(32):
        assert encode_label_flags(decode_label_flags(value)) == value
    flags_seen = {decode_label_flags(v) for v in range(32)}
    assert len(flags_seen) == 32
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, elapsed, "label encode/decode bijective over all 32 classes, 11011 -> 27")


# -- 5 -------------------------------------------------------------------------

def test_acceptance_5_tweet_preprocessing():
    assert len(TWEET_CASES) == 50
    t0 = time.perf_counter()
    for raw, expected in TWEET_CASES:
        once = preprocess_tweet(raw)
        assert once == expected, raw
        assert preprocess_tweet(once) == once, raw
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, elapsed, "50/50 tweet fixture cases pass and are idempotent")


# -- 6 -------------------------------------------------------------------------

def test_acceptance_6_split_determinism_and_disjointness():
    # 1000 documents; each sentence appears twice inside its own article so
    # per-side dedup has real work to do
    articles = []
    for i in range(1000):
        body = [f"dokumento {i} pangungusap {k}" for k in range(3)]
        articles.append(body + body[:1])
    cfg = SplitConfig(ratio=0.6, seed=424242, unit=SplitUnit.DOCUMENT)

    t0 = time.perf_counter()
    first = split_articles(articles, cfg)
    assert len(first[0]) == 600 and len(first[1]) == 400
    for _ in range(4):  # five runs in total
        assert split_articles(articles, cfg) == first

    # worker independence: each of eight interleaved shards of the unit keys,
    # hashed alone, gets the one-pass hash of every key, and the shards read
    # back in another order give the one-pass assignment
    keys = [f"article\x1f{i}" for i in range(len(articles))]
    reference = assign_split(keys, cfg)
    assert reference == {keys[i] for i, art in enumerate(articles) if art in first[0]}
    whole = dict(zip(keys, split._hash_keys(cfg.seed, keys)))
    shards = [keys[w::8] for w in range(8)]
    for shard in shards:
        assert dict(zip(shard, split._hash_keys(cfg.seed, shard))) == {k: whole[k] for k in shard}
    random.Random(2).shuffle(shards)
    assert assign_split([k for shard in shards for k in shard], cfg) == reference

    # record-level order independence with document units
    records = [
        SentenceRecord(s, f"doc{i}", k + 1)
        for i, art in enumerate(articles)
        for k, s in enumerate(art)
    ]
    rcfg = SplitConfig(ratio=0.6, seed=424242, unit=SplitUnit.DOCUMENT)
    line_nos, ordered = by_source(records)
    a_ref, b_ref = picked(ordered, split_corpus(line_nos, rcfg))
    shuffled = records[:]
    random.Random(1).shuffle(shuffled)
    line_nos, ordered = by_source(shuffled)
    a_sh, b_sh = picked(ordered, split_corpus(line_nos, rcfg))
    key = lambda rs: {(r.source_id, r.line_no, r.text) for r in rs}
    assert key(a_sh) == key(a_ref) and key(b_sh) == key(b_ref)

    # no dedup key on both sides
    side_a, side_b = first
    keys_a = {dedup_key(s) for art in side_a for s in art}
    keys_b = {dedup_key(s) for art in side_b for s in art}
    assert not keys_a & keys_b

    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "600/400 exact, stable over 5 runs and 8-way sharding, sides disjoint")


# -- 7 -------------------------------------------------------------------------

def test_acceptance_7_nli_generation():
    articles = [[f"artikulo {i} pangungusap {k}" for k in range(2 + i % 4)] for i in range(20)]
    location = {s: (i, k) for i, art in enumerate(articles) for k, s in enumerate(art)}

    t0 = time.perf_counter()
    result = make_nli_pairs(articles, seed=271828)
    for p in result.pairs:
        if p.label is NliLabel.ENTAILMENT:
            (ai, ak), (bi, bk) = location[p.premise], location[p.hypothesis]
            assert ai == bi and bk == ak + 1, "entailment must be intra-article adjacent"
        else:
            assert location[p.premise][0] != location[p.hypothesis][0], "contradiction must be cross-article"
    assert abs(result.n_entailment - result.n_contradiction) <= 1
    assert make_nli_pairs(articles, seed=271828).pairs == result.pairs

    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "20-article NLI pairs adjacent/cross/balanced and seed-stable")


# -- 8 -------------------------------------------------------------------------

_NOISE = [
    "пример текста на русском языке тут",
    "maikling linya",
    "tingnan ito /// ngayon po",
    "bumili ako sa shop.com kahapon po",
    "pumunta sa http://example.ph/page ngayon",
]


def _write_build_fixture(tmp_path, target_bytes=10_000_000):
    rng = random.Random(8)
    plain_lines = []
    total = 0
    base = _make_corpus(int(target_bytes * 0.75), seed=13)
    for i, line in enumerate(base):
        plain_lines.append(line)
        total += len(line)
        if i % 17 == 0:
            plain_lines.append(rng.choice(_NOISE))
        if i % 11 == 0:
            plain_lines.append(line)  # planted duplicate
    plain = tmp_path / "web.txt"
    plain.write_text("\n".join(plain_lines) + "\n", encoding="utf-8")

    tsv_lines = [
        f"english sentence number {i} here\t{line}"
        for i, line in enumerate(_make_corpus(int(target_bytes * 0.15), seed=29))
    ]
    tsv = tmp_path / "aligned.tsv"
    tsv.write_text("\n".join(tsv_lines) + "\n", encoding="utf-8")

    paired_tgt = _make_corpus(int(target_bytes * 0.10), seed=31)
    left = tmp_path / "paired.src.txt"
    right = tmp_path / "paired.tgt.txt"
    left.write_text("".join(f"source line {i}\n" for i in range(len(paired_tgt))), encoding="utf-8")
    right.write_text("\n".join(paired_tgt) + "\n", encoding="utf-8")

    conf = tmp_path / "build.ini"
    conf.write_text(
        "[pipeline]\n"
        "output_dir = {out}\n"
        "seed = 20260808\n"
        "\n"
        "[filter]\n"
        "min_tokens = 4\n"
        "max_tokens = 150\n"
        "\n"
        "[split]\n"
        "ratio = 0.6\n"
        "unit = line\n"
        "\n"
        "[tokenizer]\n"
        "vocab_size = 400\n"
        "character_coverage = 1.0\n"
        "\n"
        f"[source.web]\npath = {plain}\nformat = plain\n"
        "\n"
        f"[source.aligned]\npath = {tsv}\nformat = tsv\nside = target\n"
        "\n"
        f"[source.paired]\npath = {left}\npath2 = {right}\nformat = paired\nside = target\n",
        encoding="utf-8",
    )
    return conf


def test_acceptance_8_end_to_end_determinism(tmp_path):
    conf_template = _write_build_fixture(tmp_path)
    template_text = conf_template.read_text(encoding="utf-8")

    t0 = time.perf_counter()
    outputs = []
    for run in range(2):
        out_dir = tmp_path / f"out{run}"
        conf = tmp_path / f"build{run}.ini"
        conf.write_text(template_text.format(out=out_dir), encoding="utf-8")
        assert cli.main(["build", "--config", str(conf)]) == 0
        outputs.append({
            name: (out_dir / name).read_bytes()
            for name in ("corpus.txt", "split_a.txt", "split_b.txt",
                         "bpe.merges.txt", "bpe.vocab.txt", "stats.jsonl", "stats.txt")
        })
    assert outputs[0] == outputs[1], "two builds must be byte-identical"
    # The largest training any test runs: about 69k distinct words, 343
    # merges. _make_corpus draws ASCII words only, and the noise lines are
    # ASCII or Cyrillic, so no filter verdict, and hence no digest, depends
    # on the Unicode version of the running Python.
    digests = {name: hashlib.sha256(outputs[0][name]).hexdigest() for name in ("bpe.merges.txt", "bpe.vocab.txt")}
    assert digests == {
        "bpe.merges.txt": "2fb4b0e08f488694d58741fb658872c8877041a55a3c23656d575ee72b82515e",
        "bpe.vocab.txt": "7bb45b4e8b486021c9aa747f7c251536184cde6bda869acc5eda97b2060b7040",
    }

    stats = stats_from_jsonl(outputs[0]["stats.jsonl"].decode("utf-8"))
    assert stats.stages, "stats must not be empty"
    assert stats.conservation_errors() == []

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _report(8, elapsed, "10 MB build byte-identical across runs; conservation holds")
