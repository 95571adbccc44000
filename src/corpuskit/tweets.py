"""Non-destructive tweet normalization for benchmark classification sets.

The source data was tokenizer-mangled at publication time: punctuation was
split off, contractions were spaced out, HTML entities double-escaped, and
image URLs litter the text. These transforms undo that noise while keeping
the linguistic content intact: detokenize, decode entities, collapse URLs,
@-mentions and #-hashtags into placeholder tokens in one pass over the
tokens, and rejoin spaced apostrophes and hyphens. Every stage is
idempotent, and the composed preprocess_tweet applies them in the one order
that works (detokenization and entity decoding must run before
token-pattern matching).
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


def collapse_tokens(text: str) -> str:
    """Replace each URL-shaped token (http/https scheme or www. prefix) with
    [LINK], then each other @- or #-prefixed token with [MENTION] or
    [HASHTAG], in one pass over the whitespace tokens. A bare @ or # is
    ordinary text."""
    tokens = [
        LINK_TOKEN if t.lower().startswith(("http://", "https://", "www."))
        else MENTION_TOKEN if t[0] == "@" and len(t) > 1
        else HASHTAG_TOKEN if t[0] == "#" and len(t) > 1
        else t
        for t in text.split()
    ]
    return " ".join(tokens)


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
    collapse links, mentions and hashtags, then renormalize spacing."""
    text = moses_detokenize(text)
    text = decode_html_entities(text)
    text = collapse_tokens(text)
    return renormalize_spacing(text)
