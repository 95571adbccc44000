"""Properties: the trainer's merges equal those of the recount-every-merge
reference (tests/oracles.py), on words that spell the end-of-word marker and
repeat short runs, where one merge removes and re-creates pairs in a word,
and on words spelled like a vocabulary entry: one character plus the marker,
or a literal special token. The character counts taken from the word counts
equal a per-line count of the non-whitespace characters."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.bpe import DEFAULT_SPECIALS, WORD_END, TokenizerConfig, _count, learn_bpe

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


# Whitespace that str.split() splits on, ASCII and not, between special
# tokens and arbitrary text (which may hold whitespace of its own).
_SPACE = st.sampled_from([" ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"])
_LINE = st.lists(st.one_of(_SPACE, st.sampled_from(DEFAULT_SPECIALS), st.text(max_size=4)), max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=6))
def test_character_counts_equal_the_per_line_reference(lines):
    assert dict(_count(lines)[1]) == dict(oracles.reference_char_counts(lines))
