import hashlib
import random
import tracemalloc

import pytest
from fixtures import by_source, picked

from corpuskit import split
from corpuskit.core import SentenceRecord
from corpuskit.split import (
    SplitConfig,
    SplitUnit,
    assign_split,
    derive_subseed,
    seeded_hash64,
    split_articles,
    split_corpus,
    split_quota,
)


def _line_cfg(ratio, seed=42):
    return SplitConfig(ratio=ratio, seed=seed, unit=SplitUnit.LINE)


def test_hash_is_stable_and_seed_dependent():
    assert seeded_hash64(1, "x") == seeded_hash64(1, "x")
    assert seeded_hash64(1, "x") != seeded_hash64(2, "x")
    assert seeded_hash64(1, "x") != seeded_hash64(1, "y")


def test_hash_is_one_shot_keyed_blake2b():
    # nli and derive_subseed rely on these exact values; negative and
    # oversized seeds are reduced mod 2**64 before keying.
    for seed, key in ((0, 0), (-1, 2**64 - 1), (2**64 + 5, 5)):
        for data in ("", "x", "web\x1f17", "kamusta é"):
            digest = hashlib.blake2b(data.encode("utf-8"), key=key.to_bytes(8, "big"), digest_size=8).digest()
            assert seeded_hash64(seed, data) == int.from_bytes(digest, "big")


def test_subseeds_differ_by_name():
    assert derive_subseed(9, "split") != derive_subseed(9, "nli")


def test_quota_exact_arithmetic():
    assert split_quota(0.6, 10) == 6
    assert split_quota(0.6, 1000) == 600
    assert split_quota(0.4, 1000) == 400
    assert split_quota(1.0, 7) == 7
    assert split_quota(0.0, 7) == 0
    assert split_quota(0.5, 3) == 2  # ceil


def test_ten_units_ratio_point_six():
    # exact quota: 6/4 for any seed
    for seed in (0, 1, 12345):
        side_a = assign_split([f"k{i}" for i in range(10)], _line_cfg(0.6, seed))
        assert len(side_a) == 6


def test_ratio_boundaries():
    line_nos, recs = by_source(SentenceRecord(f"t{i}", "s", i + 1) for i in range(10))
    a, b = picked(recs, split_corpus(line_nos, _line_cfg(1.0)))
    assert (a, b) == (recs, [])
    a, b = picked(recs, split_corpus(line_nos, _line_cfg(0.0)))
    assert (a, b) == ([], recs)


def test_partition_is_exact_and_order_preserving():
    line_nos, recs = by_source(SentenceRecord(f"t{i}", "s", i + 1) for i in range(100))
    a, b = picked(recs, split_corpus(line_nos, _line_cfg(0.37)))
    assert len(a) + len(b) == 100
    assert len(a) == split_quota(0.37, 100)
    assert not (set((r.source_id, r.line_no) for r in a) & set((r.source_id, r.line_no) for r in b))
    # order within each side is input order
    assert [r.line_no for r in a] == sorted(r.line_no for r in a)
    assert [r.line_no for r in b] == sorted(r.line_no for r in b)


def test_determinism_across_runs():
    line_nos, recs = by_source(SentenceRecord(f"t{i}", "s", i + 1) for i in range(200))
    first = picked(recs, split_corpus(line_nos, _line_cfg(0.6, seed=99)))
    for _ in range(4):
        assert picked(recs, split_corpus(line_nos, _line_cfg(0.6, seed=99))) == first


def test_assignment_is_order_independent():
    keys = [f"unit{i}" for i in range(500)]
    cfg = _line_cfg(0.6, seed=5)
    reference = assign_split(keys, cfg)
    rng = random.Random(0)
    for _ in range(3):
        shuffled = keys[:]
        rng.shuffle(shuffled)
        assert assign_split(shuffled, cfg) == reference
    # sharded evaluation: a worker hashing its shard alone gets the whole
    # run's hash for each key, and the shards read in any order give the same set
    whole = dict(zip(keys, split._hash_keys(cfg.seed, keys)))
    shards = [keys[i::8] for i in range(8)]
    for shard in shards:
        assert dict(zip(shard, split._hash_keys(cfg.seed, shard))) == {k: whole[k] for k in shard}
    rng.shuffle(shards)
    assert assign_split([k for shard in shards for k in shard], cfg) == reference


def test_document_unit_moves_sources_together():
    line_nos, recs = by_source(
        SentenceRecord(f"d{doc} s{line}", f"doc{doc}", line + 1) for doc in range(20) for line in range(5))
    cfg = SplitConfig(ratio=0.5, seed=3, unit=SplitUnit.DOCUMENT)
    a, b = picked(recs, split_corpus(line_nos, cfg))
    docs_a = {r.source_id for r in a}
    docs_b = {r.source_id for r in b}
    assert not docs_a & docs_b
    assert len(docs_a) == 10 and len(docs_b) == 10
    assert len(a) == 50 and len(b) == 50


def test_record_unit_keys():
    # A line is keyed by its source and physical line, never by its text; a
    # document by its source alone, so one source at ratio 0.5 (a quota of
    # one unit) lands whole on side A.
    line_nos, recs = by_source([SentenceRecord("x", "src", 7), SentenceRecord("x", "src", 8)])
    for seed in range(8):
        side_a = assign_split(["src\x1f7", "src\x1f8"], _line_cfg(0.5, seed))
        expected_a = [r for r in recs if f"src\x1f{r.line_no}" in side_a]
        assert len(expected_a) == 1
        assert picked(recs, split_corpus(line_nos, _line_cfg(0.5, seed))) == (
            expected_a, [r for r in recs if r not in expected_a])
        doc_cfg = SplitConfig(ratio=0.5, seed=seed, unit=SplitUnit.DOCUMENT)
        assert picked(recs, split_corpus(line_nos, doc_cfg)) == (recs, [])


def test_line_split_holds_a_few_bytes_per_item():
    # One 64-bit hash per item, a copy of it grouped by top bits, and 8 B of
    # side positions: about 20 B per item. Keys kept past their hashing, or
    # every hash sorted as a Python int, would cost several times that.
    n = 200_000
    tracemalloc.start()
    try:
        a, b = split_corpus({"web": range(1, n + 1)}, _line_cfg(0.6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n, f"{peak / n:.1f} B per item"
    assert len(a) == split_quota(0.6, n) and len(a) + len(b) == n


def test_a_second_reading_of_other_keys_is_an_error():
    # "a" twice shares a hash, so the keys are read again to rank them.
    readings = iter([["a", "a", "b"], ["a", "a"]])
    with pytest.raises(ValueError):
        split._partition(lambda: next(readings), _line_cfg(0.5))


def test_split_articles_quota_and_determinism():
    articles = [[f"a{i} s1", f"a{i} s2"] for i in range(1000)]
    cfg = SplitConfig(ratio=0.6, seed=11, unit=SplitUnit.DOCUMENT)
    a, b = split_articles(articles, cfg)
    assert len(a) == 600 and len(b) == 400
    assert split_articles(articles, cfg) == (a, b)
    # every article lands somewhere, intact
    seen = {tuple(art) for art in a} | {tuple(art) for art in b}
    assert seen == {tuple(art) for art in articles}


def test_validate():
    assert SplitConfig(0.6, 1).validate() == []
    assert SplitConfig(1.5, 1).validate() != []
