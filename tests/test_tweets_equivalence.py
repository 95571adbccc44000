"""Property: the detokenizer and the entity decoder give the output of their
per-character and per-call-regex reference bodies (tests/oracles.py), the
decoder on its fixed entity map."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.tweets import DEFAULT_ENTITY_MAP, decode_html_entities, moses_detokenize

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
