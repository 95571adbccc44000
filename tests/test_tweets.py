import pytest

from corpuskit.tweets import (
    collapse_tokens,
    decode_html_entities,
    moses_detokenize,
    preprocess_tweet,
    renormalize_spacing,
)

from fixtures import TWEET_CASES


def test_detokenize_attaches_sentence_punctuation():
    assert moses_detokenize("Hello , world !") == "Hello, world!"


def test_detokenize_brackets():
    assert moses_detokenize("( laughs )") == "(laughs)"


def test_detokenize_clean_text_unchanged():
    assert moses_detokenize("already clean") == "already clean"


def test_detokenize_idempotent():
    for raw, _ in TWEET_CASES:
        once = moses_detokenize(raw)
        assert moses_detokenize(once) == once


@pytest.mark.parametrize("cases", [
    [("see http://t.co/abc now", "see [LINK] now"),
     ("no links here", "no links here"),
     ("www.news.ph reports", "[LINK] reports")],
    [("@user hello", "[MENTION] hello"),
     ("@ hello", "@ hello"),
     ("mail me a@b", "mail me a@b")],
    [("#dengue alert", "[HASHTAG] alert"),
     ("# alone", "# alone"),
     ("item #2", "item [HASHTAG]")],
], ids=["links", "mentions", "hashtags"])
def test_collapse_tokens_cases(cases):
    for raw, expected in cases:
        assert collapse_tokens(raw) == expected


def test_collapse_preserves_token_count():
    for raw, _ in TWEET_CASES:
        assert len(collapse_tokens(raw).split()) == len(raw.split()), raw


def test_renormalize_spacing_cases():
    assert renormalize_spacing("it 's") == "it's"
    assert renormalize_spacing("one - two") == "one-two"
    assert renormalize_spacing("three -- four") == "three -- four"
    assert renormalize_spacing("a - b - c") == "a-b-c"


def test_decode_entities_cases():
    assert decode_html_entities("&amp;") == "&"
    assert decode_html_entities("&lt;3") == "<3"
    assert decode_html_entities("AT&T") == "AT&T"
    assert decode_html_entities("&unknown; stays") == "&unknown; stays"


@pytest.mark.parametrize("raw,expected", TWEET_CASES, ids=range(len(TWEET_CASES)))
def test_preprocess_fixture(raw, expected):
    assert preprocess_tweet(raw) == expected


@pytest.mark.parametrize("raw,expected", TWEET_CASES, ids=range(len(TWEET_CASES)))
def test_preprocess_idempotent(raw, expected):
    once = preprocess_tweet(raw)
    assert preprocess_tweet(once) == once


def test_each_stage_idempotent_on_fixture():
    stages = [
        moses_detokenize,
        decode_html_entities,
        collapse_tokens,
        renormalize_spacing,
    ]
    for raw, _ in TWEET_CASES:
        for fn in stages:
            once = fn(raw)
            assert fn(once) == once, (fn.__name__, raw)
