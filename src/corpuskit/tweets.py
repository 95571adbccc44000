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

import re

LINK_TOKEN = "[LINK]"
MENTION_TOKEN = "[MENTION]"
HASHTAG_TOKEN = "[HASHTAG]"

DEFAULT_ENTITY_MAP = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&#39;": "'",
    "&nbsp;": " ",
}

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


def collapse_links(text: str) -> str:
    """Replace every URL-shaped token (http/https scheme or www. prefix)."""
    tokens = [
        LINK_TOKEN
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


def collapse_mentions(text: str) -> str:
    return _collapse_prefixed(text, "@", MENTION_TOKEN)


def collapse_hashtags(text: str) -> str:
    return _collapse_prefixed(text, "#", HASHTAG_TOKEN)


_SPACED_APOSTROPHE = re.compile(r"(?<=\w) (?=['’]\w)")
_SPACED_HYPHEN = re.compile(r"(?<=\w) - (?=\w)")


def renormalize_spacing(text: str) -> str:
    """Rejoin spaced-out contractions ("it 's" -> "it's") and single spaced
    hyphens ("one - two" -> "one-two"). Runs like "--" are left alone."""
    text = _SPACED_APOSTROPHE.sub("", text)
    return _SPACED_HYPHEN.sub("-", text)


# Longest key first, so an entity that prefixes another never wins.
_ENTITY = re.compile("|".join(re.escape(k) for k in sorted(DEFAULT_ENTITY_MAP, key=len, reverse=True)))


def decode_html_entities(text: str) -> str:
    """Decode the mapped HTML entities in one left-to-right pass.

    Unknown entities stay as written. One escaping level per call: doubly
    escaped input ("&amp;amp;") needs a second pass by design.
    """
    return _ENTITY.sub(lambda m: DEFAULT_ENTITY_MAP[m.group(0)], text)


def preprocess_tweet(text: str) -> str:
    """Full cleanup pipeline in fixed order: detokenize, decode entities,
    collapse links, mentions, hashtags, then renormalize spacing."""
    text = moses_detokenize(text)
    text = decode_html_entities(text)
    text = collapse_links(text)
    text = collapse_mentions(text)
    text = collapse_hashtags(text)
    return renormalize_spacing(text)
