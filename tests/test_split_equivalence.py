"""Property: the int-ranked split assigns exactly what the (hash, key) tuple
ranking in tests/oracles.py assigns, for assign_split, split_corpus at both
units with repeated keys, and split_articles, also when hashes are forced to
tie by folding them onto a few values. With enough items to spread over
several buckets of top bits, side A's keys do not depend on the items'
order or on how they are sharded."""

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit import split
from corpuskit.core import SentenceRecord
from corpuskit.split import SplitConfig, SplitUnit, assign_split, seeded_hash64, split_articles, split_corpus

import oracles
from fixtures import picked

_SEEDS = st.one_of(st.integers(-2, 2), st.integers(-2**70, 2**70))
_RATIOS = st.one_of(st.sampled_from([0.0, 0.37, 0.5, 0.6, 1.0]), st.floats(0.0, 1.0))
# None keeps the real hash; a small modulus folds hashes onto a few values,
# so distinct keys share a hash and the key breaks the tie.
_FOLDS = st.one_of(st.none(), st.integers(1, 4))
_KEYS = st.lists(st.text(st.sampled_from("ab\x1fé"), max_size=3), max_size=30)
_RECORDS = st.lists(st.tuples(st.sampled_from(["s", "t", "u\x1f1", "ü"]), st.integers(1, 4)), max_size=30)


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


class _Shards(Sequence):
    """Shards read in turn as one lazy sequence, as the build reads its sources."""

    def __init__(self, shards):
        self._shards = shards
        self._ends = list(accumulate(map(len, shards)))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        s = bisect_right(self._ends, i)
        return self._shards[s][i - (self._ends[s - 1] if s else 0)]

    def __iter__(self):
        return (item for shard in self._shards for item in shard)


def _side_a_keys(items, cfg):
    a, _ = picked(items, split_corpus(items, cfg))
    return {split._line_key(r) for r in a}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(128, 1500), repeats=st.integers(0, 20), seed=_SEEDS, ratio=_RATIOS,
       fold=st.integers(2, 6), rnd=st.randoms(use_true_random=False), n_shards=st.integers(1, 8))
def test_side_a_keys_ignore_order_and_sharding(n, repeats, seed, ratio, fold, rnd, n_shards):
    records = [SentenceRecord(f"t{i}", f"s{i % 3}", i) for i in range(1, n + 1)]
    records += rnd.sample(records, min(repeats, n))  # repeated keys, when drawn
    cfg = SplitConfig(ratio, seed, SplitUnit.LINE)
    hash64 = _tied_hash64(fold)
    with mock.patch.object(split, "_hash_keys", lambda seed, keys: array("Q", (hash64(seed, k) for k in keys))):
        side_a = _side_a_keys(records, cfg)
        assert side_a == oracles.reference_assign_split(map(split._line_key, records), cfg, hash64)
        shuffled = records[:]
        rnd.shuffle(shuffled)
        assert _side_a_keys(shuffled, cfg) == side_a
        cuts = sorted(rnd.randrange(len(shuffled) + 1) for _ in range(n_shards - 1))
        shards = [shuffled[i:j] for i, j in zip([0, *cuts], [*cuts, len(shuffled)])]
        rnd.shuffle(shards)
        assert _side_a_keys(_Shards(shards), cfg) == side_a


@settings(max_examples=300, deadline=None)
@given(keys=_KEYS, seed=_SEEDS, ratio=_RATIOS, fold=_FOLDS)
def test_assign_split_equals_the_tuple_ranking(keys, seed, ratio, fold):
    cfg = SplitConfig(ratio, seed, SplitUnit.LINE)
    with _patched(fold):
        assert assign_split(keys, cfg) == oracles.reference_assign_split(keys, cfg, _hash64(fold))


@settings(max_examples=300, deadline=None)
@given(drawn=_RECORDS, seed=_SEEDS, ratio=_RATIOS, fold=_FOLDS, unit=st.sampled_from(SplitUnit))
def test_split_corpus_equals_the_tuple_ranking(drawn, seed, ratio, fold, unit):
    # A (source, line) pair drawn twice repeats a line key.
    records = [SentenceRecord(f"t{i}", source, line_no) for i, (source, line_no) in enumerate(drawn)]
    cfg = SplitConfig(ratio, seed, unit)
    with _patched(fold):
        assert picked(records, split_corpus(records, cfg)) == oracles.reference_split_corpus(records, cfg, _hash64(fold))


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
