"""Property: each whole-line filter gives the verdict of its per-character,
per-token reference body (tests/oracles.py) on arbitrary text and configs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.filters import DEFAULT_HTML_PATTERNS, FILTER_CHAIN, FilterConfig, apply_filters

import oracles

# Codepoints at the edges of the fast paths: ASCII punctuation, non-ASCII
# whitespace, non-ASCII punctuation, Cyrillic and CJK letters, and letters
# whose lowering is special (final sigma, dotted capital I).
_EDGES = st.sampled_from(
    list("!\"#%&'()*,-./:;?@[\\]_{}$+<=>^`|~")
    + ["\u00a0", "\u3000", "\u2028", "\u0085", "\x1f", "\t"]
    + list("…«»¡¿·–—、。")
    + list("абвгдежзΣσςİı")
    + list("漢字中文日本")
    + list("ñéüßǅ") + ["\u0301"]
)
_TEXT = st.text(st.one_of(_EDGES, st.sampled_from("abcxyzABC019  "), st.characters()), max_size=80)
_PATTERNS = st.one_of(
    st.just(DEFAULT_HTML_PATTERNS),
    st.lists(st.sampled_from(["http", "..", "σ", "ς", "Σ", "İ", "i̇", "ß", "«", "漢", "", "a b"]),
             min_size=1, max_size=3).map(tuple),
)
# validate refuses a negative share, a run limit below 1 and empty or spaced
# patterns, yet the verdicts still agree under them.
_CONFIG = st.builds(
    FilterConfig,
    nonlatin_max_ratio=st.floats(-0.25, 1.0),
    min_tokens=st.integers(1, 4),
    punct_run_max=st.integers(-1, 6),
    awl_min=st.sampled_from([0.5, 3.0]),
    html_patterns=_PATTERNS,
)


@settings(max_examples=400, deadline=None)
@given(_TEXT, _CONFIG)
def test_fast_filters_agree_with_reference_bodies(text, cfg):
    for fast, (reason, reference) in zip(FILTER_CHAIN, oracles.REFERENCE_FILTERS):
        assert fast(text, cfg).passed == reference(text, cfg), reason
    assert apply_filters(text, cfg).reason.value == oracles.reference_reject_reason(text, cfg)


@settings(max_examples=400, deadline=None)
@given(_TEXT, _CONFIG)
def test_each_filter_gives_the_same_verdict_on_tokens_passed_in(text, cfg):
    for f in FILTER_CHAIN:
        assert f(text, cfg, tokens=text.split()) == f(text, cfg), f.__name__
