import pytest

from corpuskit.tweets import (
    collapse_hashtags,
    collapse_links,
    collapse_mentions,
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


def test_collapse_links_cases():
    assert collapse_links("see http://t.co/abc now") == "see [LINK] now"
    assert collapse_links("no links here") == "no links here"
    assert collapse_links("www.news.ph reports") == "[LINK] reports"


def test_collapse_mentions_cases():
    assert collapse_mentions("@user hello") == "[MENTION] hello"
    assert collapse_mentions("@ hello") == "@ hello"
    assert collapse_mentions("mail me a@b") == "mail me a@b"


def test_collapse_hashtags_cases():
    assert collapse_hashtags("#dengue alert") == "[HASHTAG] alert"
    assert collapse_hashtags("# alone") == "# alone"
    assert collapse_hashtags("item #2") == "item [HASHTAG]"


def test_collapse_preserves_token_count():
    for raw, _ in TWEET_CASES:
        for fn in (collapse_links, collapse_mentions, collapse_hashtags):
            assert len(fn(raw).split()) == len(raw.split()), (fn.__name__, raw)


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
        collapse_links,
        collapse_mentions,
        collapse_hashtags,
        renormalize_spacing,
    ]
    for raw, _ in TWEET_CASES:
        for fn in stages:
            once = fn(raw)
            assert fn(once) == once, (fn.__name__, raw)
