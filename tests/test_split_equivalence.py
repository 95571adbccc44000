"""Property: the int-ranked split assigns exactly what the (hash, key) tuple
ranking in tests/oracles.py assigns, for assign_split, split_corpus at both
units with empty sources and repeated line numbers, and split_articles, also
when hashes are forced to tie by folding them onto a few values. With enough
items to spread over several buckets of top bits, side A's keys do not
depend on the order of the sources or of their lines, or on how the lines
are sharded."""

from array import array
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit import split
from corpuskit.core import SentenceRecord
from corpuskit.split import SplitConfig, SplitUnit, assign_split, seeded_hash64, split_articles, split_corpus

import oracles
from fixtures import by_source, picked

_SEEDS = st.one_of(st.integers(-2, 2), st.integers(-2**70, 2**70))
_RATIOS = st.one_of(st.sampled_from([0.0, 0.37, 0.5, 0.6, 1.0]), st.floats(0.0, 1.0))
# None keeps the real hash; a small modulus folds hashes onto a few values,
# so distinct keys share a hash and the key breaks the tie.
_FOLDS = st.one_of(st.none(), st.integers(1, 4))
_KEYS = st.lists(st.text(st.sampled_from("ab\x1fé"), max_size=3), max_size=30)
_SOURCE_IDS = ["s", "t", "u\x1f1", "ü"]
_RECORDS = st.lists(st.tuples(st.sampled_from(_SOURCE_IDS), st.integers(1, 4)), max_size=30)
# Sources named first, in this order: one never drawn is an empty source.
_SOURCE_ORDERS = st.lists(st.sampled_from([*_SOURCE_IDS, "e", "e\x1f2"]), unique=True)


def _hash64(fold):
    if fold is None:
        return seeded_hash64
    return lambda seed, key: seeded_hash64(seed, key) % fold


def _patched(fold):
    """Make the library hash every key with _hash64(fold), as the oracle does."""
    hash64 = _hash64(fold)
    return mock.patch.object(split, "_hash_keys", lambda seed, keys: array("Q", (hash64(seed, k) for k in keys)))


def _tied_hash64(fold):
    """Half of the keys keep their hash; the other half fold onto `fold`
    values spread over the top bits, so ties fall in the bucket that holds
    the cut and in buckets on both sides of it."""
    step = (1 << 64) // fold

    def hash64(seed, key):
        h = seeded_hash64(seed, key)
        return h if h & 1 else (h >> 1) % fold * step

    return hash64


def _line_key(r):
    return f"{r.source_id}\x1f{r.line_no}"


def _side_a_keys(records, cfg, sources=()):
    line_nos, ordered = by_source(records, sources)
    a, _ = picked(ordered, split_corpus(line_nos, cfg))
    return {_line_key(r) for r in a}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(128, 1500), repeats=st.integers(0, 20), seed=_SEEDS, ratio=_RATIOS,
       fold=st.integers(2, 6), rnd=st.randoms(use_true_random=False), n_shards=st.integers(1, 8))
def test_side_a_keys_ignore_order_and_sharding(n, repeats, seed, ratio, fold, rnd, n_shards):
    records = [SentenceRecord(f"t{i}", f"s{i % 3}", i) for i in range(1, n + 1)]
    records += rnd.sample(records, min(repeats, n))  # repeated line numbers, when drawn
    cfg = SplitConfig(ratio, seed, SplitUnit.LINE)
    hash64 = _tied_hash64(fold)
    with mock.patch.object(split, "_hash_keys", lambda seed, keys: array("Q", (hash64(seed, k) for k in keys))):
        side_a = _side_a_keys(records, cfg)
        assert side_a == oracles.reference_assign_split(map(_line_key, records), cfg, hash64)
        # the sources in another order, one of them empty, and each source's lines shuffled
        shuffled = records[:]
        rnd.shuffle(shuffled)
        assert _side_a_keys(shuffled, cfg, rnd.sample(["s0", "s1", "s2", "empty"], 4)) == side_a
        # the lines cut into shards, read back in another order
        cuts = sorted(rnd.randrange(len(shuffled) + 1) for _ in range(n_shards - 1))
        shards = [shuffled[i:j] for i, j in zip([0, *cuts], [*cuts, len(shuffled)])]
        rnd.shuffle(shards)
        assert _side_a_keys([r for shard in shards for r in shard], cfg) == side_a


@settings(max_examples=300, deadline=None)
@given(keys=_KEYS, seed=_SEEDS, ratio=_RATIOS, fold=_FOLDS)
def test_assign_split_equals_the_tuple_ranking(keys, seed, ratio, fold):
    cfg = SplitConfig(ratio, seed, SplitUnit.LINE)
    with _patched(fold):
        assert assign_split(keys, cfg) == oracles.reference_assign_split(keys, cfg, _hash64(fold))


@settings(max_examples=300, deadline=None)
@given(drawn=_RECORDS, sources=_SOURCE_ORDERS, seed=_SEEDS, ratio=_RATIOS, fold=_FOLDS,
       unit=st.sampled_from(SplitUnit))
def test_split_corpus_equals_the_tuple_ranking(drawn, sources, seed, ratio, fold, unit):
    # A (source, line) pair drawn twice repeats a line number; a named
    # source with no drawn pair is empty, and gets no rank as a document.
    line_nos, records = by_source(
        (SentenceRecord(f"t{i}", source, line_no) for i, (source, line_no) in enumerate(drawn)), sources)
    cfg = SplitConfig(ratio, seed, unit)
    with _patched(fold):
        assert picked(records, split_corpus(line_nos, cfg)) == oracles.reference_split_corpus(records, cfg, _hash64(fold))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), seed=_SEEDS, ratio=_RATIOS, fold=_FOLDS)
def test_split_articles_equals_the_tuple_ranking(n, seed, ratio, fold):
    articles = [[f"a{i} s1", f"a{i} s2"] for i in range(n)]
    cfg = SplitConfig(ratio, seed)
    with _patched(fold):
        assert split_articles(articles, cfg) == oracles.reference_split_articles(articles, cfg, _hash64(fold))


@given(keys=_KEYS, seed=_SEEDS)
def test_keys_hash_as_seeded_hash64(keys, seed):
    assert list(split._hash_keys(seed, keys)) == [seeded_hash64(seed, k) for k in keys]
