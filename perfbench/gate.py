"""Correctness gate: checks one operation's outputs against its inputs.

Each check returns a list of (operation index, problem) pairs, empty when the
outputs are correct, and a dict of input properties measured on the way (the
shares of rejected, duplicate, non-ASCII and distinct-word text), which the
traced run reports so that a later change can cite them.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from gen import REJECT_REASONS, SPLIT_RATIO

SAMPLE = 200  # lines per round-trip / idempotence sample


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _quota(n: int) -> int:
    return math.ceil(Fraction(SPLIT_RATIO) * n)


def _sample(items: list, seed: str) -> list:
    return random.Random(seed).sample(items, min(SAMPLE, len(items)))


def _is_subsequence(part: list[str], whole: list[str]) -> bool:
    it = iter(whole)
    return all(any(x == y for y in it) for x in part)


def _round_trip(bpe, merges: Path, vocab: Path, texts: list[str], ids_lines: list[str] | None):
    """decode(encode(x)) == x on the covered lines of a sample; with ids_lines,
    the ids are the program's own output for each text."""
    model = bpe.load_model(merges, vocab)
    alphabet = model.alphabet()
    problems = []
    covered = 0
    for i in _sample(range(len(texts)), "round-trip"):
        text = texts[i]
        if not set(text.replace(" ", "")) <= alphabet:
            continue
        covered += 1
        ids = [int(t) for t in ids_lines[i].split()] if ids_lines is not None else bpe.encode(model, text)
        if bpe.decode(model, ids) != text:
            problems.append(f"decode(encode(x)) != x for {text!r}")
            break
    if not covered:
        problems.append("no covered line in the round-trip sample")
    return problems


def check_build(manifest: dict, bpe) -> tuple[list[tuple[int, str]], dict]:
    out = Path(manifest["out_dir"])
    expect = manifest["expect"]
    p: list[str] = []
    names = ["corpus.txt", "rejects.tsv", "split_a.txt", "split_b.txt", "stats.jsonl", "stats.txt"]
    if expect["vocab_size"]:
        names += ["bpe.merges.txt", "bpe.vocab.txt"]
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        return [(0, f"missing outputs: {missing}")], {}

    stats = [json.loads(line) for line in _lines(out / "stats.jsonl")]
    stage: dict[tuple[str, str], dict] = {}
    for rec in stats:
        stage[rec["stage"], rec["source_id"]] = rec
        accounted = rec["lines_out"] + sum(rec["rejects"].values()) + rec["duplicates_dropped"]
        if rec["lines_in"] != accounted:
            p.append(f"conservation broken: {rec}")
    for sid, n in expect["ingest_lines"].items():
        ing, fil, ded = (stage.get((s, sid), {}) for s in ("ingest", "filter", "dedup"))
        if ing.get("lines_in") != n:
            p.append(f"source {sid}: ingest read {ing.get('lines_in')} lines, input has {n}")
        if ing.get("lines_out") != fil.get("lines_in") or fil.get("lines_out") != ded.get("lines_in"):
            p.append(f"source {sid}: stage counts do not chain")

    def total(name, key):
        return sum(r[key] for r in stats if r["stage"] == name)

    filter_rejects = Counter()
    for r in stats:
        if r["stage"] == "filter":
            filter_rejects.update(r["rejects"])
    rejects = _lines(out / "rejects.tsv")
    if len(rejects) != sum(filter_rejects.values()):
        p.append("rejects.tsv disagrees with the filter counts")
    if sorted(filter_rejects) != sorted(REJECT_REASONS):
        p.append(f"expected every reject reason, got {dict(filter_rejects)}")

    corpus = _lines(out / "corpus.txt")
    if len(set(corpus)) != len(corpus):
        p.append("corpus.txt has duplicate lines")
    if len(corpus) != total("dedup", "lines_out"):
        p.append("corpus.txt disagrees with the dedup counts")

    a, b = _lines(out / "split_a.txt"), _lines(out / "split_b.txt")
    if len(a) + len(b) != len(corpus) or set(a) | set(b) != set(corpus):
        p.append("split sides do not add up to the corpus")
    if len(a) != _quota(len(corpus)):
        p.append(f"split A has {len(a)} lines, quota is {_quota(len(corpus))}")
    if not (_is_subsequence(a, corpus) and _is_subsequence(b, corpus)):
        p.append("split sides do not keep corpus order")

    words: set[str] = set()
    if expect["vocab_size"]:
        vocab_ids = [line.rsplit("\t", 1)[1] for line in _lines(out / "bpe.vocab.txt")]
        if vocab_ids != [str(i) for i in range(expect["vocab_size"])]:
            p.append(f"|vocab| = {len(vocab_ids)}, expected {expect['vocab_size']} dense ids")
        p += _round_trip(bpe, out / "bpe.merges.txt", out / "bpe.vocab.txt", a, None)
        for line in a:
            words.update(line.split())

    props = {
        "reject_share": sum(filter_rejects.values()) / total("filter", "lines_in"),
        "duplicate_share": total("dedup", "duplicates_dropped") / total("dedup", "lines_in"),
        "bpe_distinct_words": len(words),
    }
    return [(0, msg) for msg in p], props


def _articles(path: Path) -> list[tuple[str, ...]]:
    blocks, block = [], []
    for line in _lines(path):
        if line.strip():
            block.append(line.strip())
        elif block:
            blocks.append(tuple(block))
            block = []
    if block:
        blocks.append(tuple(block))
    return blocks


def check_prep(manifest: dict, bpe, tweets, labels) -> tuple[list[tuple[int, str]], dict]:
    """Chain order: 0 ingest tsv, 1 ingest paired, 2 filter, 3 dedup,
    4 split, 5 make-nli, 6 prep-tweets, 7 encode-labels, 8 encode."""
    out = Path(manifest["out_dir"])
    expect = manifest["expect"]
    inputs = {Path(x).name: Path(x) for x in manifest["inputs"]}
    p: list[tuple[int, str]] = []

    def read(i: int, name: str) -> list[str] | None:
        if not (out / name).is_file():
            p.append((i, f"missing output {name}"))
            return None
        return _lines(out / name)

    tsv, paired = read(0, "ingest_tsv.txt"), read(1, "ingest_paired.txt")
    for i, got, want in ((0, tsv, expect["ingest_tsv"]), (1, paired, expect["ingest_paired"])):
        if got is not None and len(got) != want:
            p.append((i, f"ingest extracted {len(got)} lines, expected {want}"))

    kept, rejects = read(2, "kept.txt"), read(2, "rejects.tsv")
    props: dict = {}
    if None not in (tsv, kept, rejects):
        if len(kept) + len(rejects) != len(tsv):
            p.append((2, "filter lost or invented lines"))
        if any(r.split("\t", 1)[0] not in REJECT_REASONS for r in rejects):
            p.append((2, "unknown reject reason"))
        props["reject_share"] = len(rejects) / len(tsv)

    unique = read(3, "unique.txt")
    if None not in (unique, kept, paired):
        seen, oracle = set(), []
        for line in kept + paired:
            if line.strip() and line.strip() not in seen:
                seen.add(line.strip())
                oracle.append(line.strip())
        if unique != oracle:
            p.append((3, "external dedup differs from the keep-first oracle"))
        props["duplicate_share"] = 1 - len(oracle) / sum(1 for x in kept + paired if x.strip())
        words = [w for line in unique for w in line.split()]
        props["distinct_word_share"] = len(set(words)) / len(words)

    if (out / "split_a.txt").is_file() and (out / "split_b.txt").is_file():
        a, b = _articles(out / "split_a.txt"), _articles(out / "split_b.txt")
        n = expect["articles"]
        if Counter(a) + Counter(b) != Counter(_articles(inputs["articles.txt"])):
            p.append((4, "split sides do not add up to the articles"))
        if len(a) != _quota(n):
            p.append((4, f"split A has {len(a)} articles, quota is {_quota(n)}"))
        nli_rows = read(5, "nli.tsv")
        if nli_rows is not None:
            fields = [r.split("\t") for r in nli_rows]
            labels_seen = Counter(f[-1] for f in fields)
            adjacent = sum(x != y for art in b for x, y in zip(art, art[1:]))
            if any(len(f) != 3 or f[0] == f[1] for f in fields):
                p.append((5, "malformed or degenerate NLI row"))
            if labels_seen["entailment"] != adjacent or labels_seen["contradiction"] != adjacent:
                p.append((5, f"NLI labels unbalanced: {dict(labels_seen)}, {adjacent} adjacent pairs"))
    else:
        p.append((4, "missing split outputs"))

    cleaned = read(6, "tweets.clean.tsv")
    if cleaned is not None:
        raw = _lines(inputs["tweets.tsv"])
        if len(cleaned) != expect["tweets"] or [c.rsplit("\t", 1)[1] for c in cleaned] != [
                r.rsplit("\t", 1)[1] for r in raw]:
            p.append((6, "tweet rows or labels changed"))
        for row in _sample(cleaned, "tweets"):
            text = row.rsplit("\t", 1)[0]
            if tweets.preprocess_tweet(text) != text:
                p.append((6, f"prep-tweets is not idempotent on {text!r}"))
                break

    classes = read(7, "classes.csv")
    if classes is not None:
        flags = [tuple(bool(int(v)) for v in row.split(",")) for row in _lines(inputs["flags.csv"])]
        if [labels.decode_label_flags(int(c)) for c in classes] != flags:
            p.append((7, "encode-labels does not round-trip"))

    ids = read(8, "ids.txt")
    if ids is not None and unique is not None:
        if len(ids) != len(unique):
            p.append((8, "encode wrote a different number of lines"))
        else:
            p += [(8, msg) for msg in _round_trip(
                bpe, inputs["bpe.merges.txt"], inputs["bpe.vocab.txt"], unique, ids)]
    return p, props
