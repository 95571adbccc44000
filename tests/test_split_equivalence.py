"""Property: the int-ranked split assigns exactly what the (hash, key) tuple
ranking in tests/oracles.py assigns, for assign_split, split_corpus at both
units with repeated keys, and split_articles, also when hashes are forced to
tie by folding them onto a few values."""

from array import array
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit import split
from corpuskit.core import SentenceRecord
from corpuskit.split import SplitConfig, SplitUnit, assign_split, seeded_hash64, split_articles, split_corpus

import oracles

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
        assert split_corpus(records, cfg) == oracles.reference_split_corpus(records, cfg, _hash64(fold))


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
