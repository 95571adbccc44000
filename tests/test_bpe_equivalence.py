"""Property: the trainer's merges equal those of the recount-every-merge
reference (tests/oracles.py), on words that spell the end-of-word marker and
repeat short runs, where one merge removes and re-creates pairs in a word,
and on words spelled like a vocabulary entry: one character plus the marker,
or a literal special token."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.bpe import DEFAULT_SPECIALS, WORD_END, TokenizerConfig, learn_bpe

import oracles

# Single characters, plus the whole marker so that words often spell it.
_CHARS = ["a", "b", "é", "<", "/", "w", ">"]
_PIECE = st.sampled_from([*_CHARS, WORD_END])
_RUN = st.builds(lambda unit, times: unit * times, st.lists(_PIECE, min_size=1, max_size=3).map("".join),
                 st.integers(1, 4))
# Words that spell a vocabulary entry are drawn on purpose: only a special
# token stays out of training, a word like "a</w>" is trained like any other.
_WORD = st.one_of(
    st.lists(_RUN, min_size=1, max_size=3).map("".join),
    st.sampled_from(_CHARS).map(lambda ch: ch + WORD_END),
    st.sampled_from(DEFAULT_SPECIALS),
)
_WORDS = st.dictionaries(_WORD, st.integers(1, 9), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(words=_WORDS, data=st.data())
def test_merges_equal_the_recount_reference(words, data):
    chars = set("".join(words))
    vocab = {*DEFAULT_SPECIALS, *chars, *(ch + WORD_END for ch in chars)}
    # A word that equals a special token stays atomic in training.
    reference = oracles.quadratic_bpe_merges({w: n for w, n in words.items() if w not in DEFAULT_SPECIALS},
                                             10_000)
    # Stop after a drawn number of reference merges; a merge whose output is
    # already a symbol adds no entry, so size the vocabulary by distinct entries.
    vocab.update(a + b for a, b in reference[:data.draw(st.integers(0, len(reference)))])
    model = learn_bpe([w for w, n in words.items() for _ in range(n)], TokenizerConfig(vocab_size=len(vocab)))
    assert model.merges == reference[:len(model.merges)]
    assert set(model.vocab) == vocab
