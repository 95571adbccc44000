"""Non-destructive tweet normalization for benchmark classification sets.

The source data was tokenizer-mangled at publication time: punctuation was
split off, contractions were spaced out, HTML entities double-escaped, and
image URLs litter the text. These transforms undo that noise while keeping
the linguistic content intact: detokenize, decode entities, collapse URLs /
@-mentions / #-hashtags into single placeholder tokens, and rejoin spaced
apostrophes and hyphens. Every stage is idempotent, and the composed
preprocess_tweet applies them in the one order that works (detokenization
and entity decoding must run before token-pattern matching).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Mapping

DEFAULT_ENTITY_MAP = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&#39;": "'",
    "&nbsp;": " ",
}


@dataclass(frozen=True)
class TweetPrepConfig:
    link_token: str = "[LINK]"
    mention_token: str = "[MENTION]"
    hashtag_token: str = "[HASHTAG]"
    entity_map: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_ENTITY_MAP))

    def validate(self) -> list[str]:
        tokens = (self.link_token, self.mention_token, self.hashtag_token)
        problems = []
        if len(set(tokens)) != 3 or not all(tokens):
            problems.append(f"placeholder tokens must be distinct and non-empty, got {tokens}")
        return problems


DEFAULT_TWEET_CONFIG = TweetPrepConfig()

_GLUE_LEFT = ".,!?;:%)]}"  # sentence punctuation and closing brackets
_OPENERS = "([{"


def moses_detokenize(text: str) -> str:
    """Reattach split-off punctuation: sentence punctuation and closing
    brackets glue to the token on their left, opening brackets to the right.

    Intentionally a minimal rule set, not the full reference script; it is
    idempotent, so already-clean text passes through unchanged.
    """
    out: list[str] = []
    glue = True  # no separator before the first token or after an opener
    for tok in text.split():
        # A token is non-empty, so it strips to nothing only if all its characters are in the set.
        if out and not tok.strip(_GLUE_LEFT):
            out.append(tok)
            glue = False
            continue
        if not glue:
            out.append(" ")
        out.append(tok)
        glue = not tok.strip(_OPENERS)
    return "".join(out)


def collapse_links(text: str, cfg: TweetPrepConfig = DEFAULT_TWEET_CONFIG) -> str:
    """Replace every URL-shaped token (http/https scheme or www. prefix)."""
    tokens = [
        cfg.link_token
        if t.lower().startswith(("http://", "https://", "www."))
        else t
        for t in text.split()
    ]
    return " ".join(tokens)


def _collapse_prefixed(text: str, prefix: str, replacement: str) -> str:
    # "greater than length 1": a bare @ or # is ordinary text
    tokens = [
        replacement if t.startswith(prefix) and len(t) > 1 else t
        for t in text.split()
    ]
    return " ".join(tokens)


def collapse_mentions(text: str, cfg: TweetPrepConfig = DEFAULT_TWEET_CONFIG) -> str:
    return _collapse_prefixed(text, "@", cfg.mention_token)


def collapse_hashtags(text: str, cfg: TweetPrepConfig = DEFAULT_TWEET_CONFIG) -> str:
    return _collapse_prefixed(text, "#", cfg.hashtag_token)


_SPACED_APOSTROPHE = re.compile(r"(?<=\w) (?=['’]\w)")
_SPACED_HYPHEN = re.compile(r"(?<=\w) - (?=\w)")


def renormalize_spacing(text: str) -> str:
    """Rejoin spaced-out contractions ("it 's" -> "it's") and single spaced
    hyphens ("one - two" -> "one-two"). Runs like "--" are left alone."""
    text = _SPACED_APOSTROPHE.sub("", text)
    return _SPACED_HYPHEN.sub("-", text)


@functools.lru_cache(maxsize=16)
def _entity_pattern(keys: tuple[str, ...]) -> re.Pattern[str]:
    # Longest key first, so an entity that prefixes another never wins.
    return re.compile("|".join(re.escape(k) for k in sorted(keys, key=len, reverse=True)))


def decode_html_entities(text: str, cfg: TweetPrepConfig = DEFAULT_TWEET_CONFIG) -> str:
    """Decode the mapped HTML entities in one left-to-right pass.

    Unknown entities stay as written. One escaping level per call: doubly
    escaped input ("&amp;amp;") needs a second pass by design.
    """
    entity_map = cfg.entity_map
    if not entity_map:
        return text
    return _entity_pattern(tuple(entity_map)).sub(lambda m: entity_map[m.group(0)], text)


def preprocess_tweet(text: str, cfg: TweetPrepConfig = DEFAULT_TWEET_CONFIG) -> str:
    """Full cleanup pipeline in fixed order: detokenize, decode entities,
    collapse links, mentions, hashtags, then renormalize spacing."""
    text = moses_detokenize(text)
    text = decode_html_entities(text, cfg)
    text = collapse_links(text, cfg)
    text = collapse_mentions(text, cfg)
    text = collapse_hashtags(text, cfg)
    return renormalize_spacing(text)
