"""Property: the detokenizer and the entity decoder give the output of their
per-character and per-call-regex reference bodies (tests/oracles.py), the
decoder on its fixed entity map; the one-pass token collapse, alone and
inside preprocess_tweet, gives the output of the three reference passes."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.tweets import (
    DEFAULT_ENTITY_MAP,
    collapse_tokens,
    decode_html_entities,
    moses_detokenize,
    preprocess_tweet,
    renormalize_spacing,
)

import oracles

# Tokens of the punctuation the detokenizer glues, entity pieces and other
# text, joined by ASCII and non-ASCII whitespace.
_PUNCT_RUN = st.text(st.sampled_from(".,!?;:%)]}([{"), min_size=1, max_size=3)
_TOKEN = st.one_of(_PUNCT_RUN,
                   st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&nbsp;", "&amp;amp;", "a&b", "it",
                                    "'s", ":)", "-"]),
                   st.text(st.characters(), max_size=4))
_SPACE = st.sampled_from([" ", " ", "  ", "\t", "\u00a0", "\u3000", "\u2028"])
_TEXT = st.lists(st.tuples(_TOKEN, _SPACE).map("".join), max_size=12).map("".join)


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_tweet_stages_agree_with_reference_bodies(text):
    assert moses_detokenize(text) == oracles.reference_moses_detokenize(text)
    assert decode_html_entities(text) == oracles.reference_decode_html_entities(text, DEFAULT_ENTITY_MAP)


# Tokens at the edges of the collapse rules: bare and one-character prefixes,
# a prefix before a URL and a URL before a prefix, an upper-case scheme, a
# character whose lower-case form is longer, and the placeholders themselves.
_COLLAPSE_TOKEN = st.one_of(
    st.sampled_from(["@", "#", "@x", "#x", "@http://x", "#www.x", "www.#x", "HTTPS://X", "İwww.x", "http://",
                     "[LINK]", "[MENTION]", "[HASHTAG]", "a@b", "it", "'s", "-", ",", "&amp;"]),
    st.text(st.sampled_from("@#wWhHtTpPsS:/.İx "), min_size=1, max_size=9),
)
_COLLAPSE_TEXT = st.lists(st.tuples(_COLLAPSE_TOKEN, _SPACE).map("".join), max_size=12).map("".join)


@settings(max_examples=400, deadline=None)
@given(_COLLAPSE_TEXT)
def test_collapse_tokens_agrees_with_three_reference_passes(text):
    assert collapse_tokens(text) == oracles.reference_collapse_tokens(text)
    cleaned = oracles.reference_collapse_tokens(decode_html_entities(moses_detokenize(text)))
    assert preprocess_tweet(text) == renormalize_spacing(cleaned)
