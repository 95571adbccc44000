"""Independent naive reference implementations used as test oracles.

Each function re-derives the documented behavior as directly as possible,
through a different code path than the library (character-name lookups
instead of range tables, text sets instead of digests, full recounts
instead of incremental heaps). Slow and obvious on purpose. The reference
filter bodies are the exception: they keep the library's predicates and
differ only in walking every character and token.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_right
from collections import Counter

from corpuskit.filters import _LATIN_RANGES, is_punct
from corpuskit.split import SplitUnit, seeded_hash64, split_quota

WORD_END = "</w>"


# --- quality filters -------------------------------------------------------

def latin_by_name(ch: str) -> bool:
    return "LATIN" in unicodedata.name(ch, "")


def non_latin_ok(text: str, max_ratio: float) -> bool:
    visible = [c for c in text if not c.isspace()]
    if not visible:
        return True
    foreign = [c for c in visible if c.isalpha() and not latin_by_name(c)]
    return len(foreign) / len(visible) <= max_ratio


def length_ok(text: str, lo: int, hi: int) -> bool:
    return lo <= len(text.split()) <= hi


def punct_run_ok(text: str, max_run: int) -> bool:
    for tok in text.split():
        run = 0
        for ch in tok:
            run = run + 1 if unicodedata.category(ch).startswith("P") else 0
            if run > max_run:
                return False
    return True


def awl_ok(text: str, lo: float, hi: float) -> bool:
    toks = text.split()
    if not toks:
        return True
    return lo <= sum(len(t) for t in toks) / len(toks) <= hi


def html_ok(text: str, patterns) -> bool:
    low_patterns = [p.lower() for p in patterns]
    return not any(p in tok.lower() for tok in text.split() for p in low_patterns)


def first_reject_reason(text: str, cfg) -> str:
    """Composition oracle: the name of the first failing filter, or 'None'."""
    if not non_latin_ok(text, cfg.nonlatin_max_ratio):
        return "NonLatin"
    if not length_ok(text, cfg.min_tokens, cfg.max_tokens):
        return "Length"
    if not punct_run_ok(text, cfg.punct_run_max):
        return "PunctRun"
    if not awl_ok(text, cfg.awl_min, cfg.awl_max):
        return "AvgWordLen"
    if not html_ok(text, cfg.html_patterns):
        return "Html"
    return "None"


# --- reference filter bodies -----------------------------------------------
# The per-character and per-token filter bodies the library used before its
# whole-line fast paths, on the library's own predicates and Latin range
# table: the fast filters must agree with these exactly, verdict for verdict.

_LATIN_STARTS = [lo for lo, _ in _LATIN_RANGES]


def reference_is_latin(ch: str) -> bool:
    """True if the codepoint falls in one of the library's Latin ranges."""
    cp = ord(ch)
    i = bisect_right(_LATIN_STARTS, cp) - 1
    return i >= 0 and cp <= _LATIN_RANGES[i][1]


def reference_non_latin(text: str, cfg) -> bool:
    visible = 0
    foreign = 0
    for ch in text:
        if ch.isspace():
            continue
        visible += 1
        if ch.isalpha() and not reference_is_latin(ch):
            foreign += 1
    return not (visible > 0 and foreign / visible > cfg.nonlatin_max_ratio)


def reference_length(text: str, cfg) -> bool:
    return cfg.min_tokens <= len(text.split()) <= cfg.max_tokens


def reference_punct_run(text: str, cfg) -> bool:
    for token in text.split():
        run = 0
        for ch in token:
            if is_punct(ch):
                run += 1
                if run > cfg.punct_run_max:
                    return False
            else:
                run = 0
    return True


def reference_avg_word_len(text: str, cfg) -> bool:
    tokens = text.split()
    if not tokens:
        return True
    return cfg.awl_min <= sum(len(t) for t in tokens) / len(tokens) <= cfg.awl_max


def reference_html(text: str, cfg) -> bool:
    patterns = [p.lower() for p in cfg.html_patterns]
    for token in text.split():
        low = token.lower()
        for p in patterns:
            if p in low:
                return False
    return True


REFERENCE_FILTERS = (
    ("NonLatin", reference_non_latin),
    ("Length", reference_length),
    ("PunctRun", reference_punct_run),
    ("AvgWordLen", reference_avg_word_len),
    ("Html", reference_html),
)


def reference_reject_reason(text: str, cfg) -> str:
    for reason, passes in REFERENCE_FILTERS:
        if not passes(text, cfg):
            return reason
    return "None"


# --- dedup ------------------------------------------------------------------

def dedup_keep_first(texts: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for t in texts:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


# --- split ------------------------------------------------------------------
# The ranking the library used before it ranked hashes as ints: every
# distinct key sorted by its (hash, key) tuple, side A as a set of keys.

def reference_assign_split(keys, cfg, hash64=seeded_hash64) -> set[str]:
    distinct = set(keys)
    ranked = sorted(distinct, key=lambda k: (hash64(cfg.seed, k), k))
    return set(ranked[: split_quota(cfg.ratio, len(ranked))])


def reference_partition(items, keys, cfg, hash64=seeded_hash64) -> tuple[list, list]:
    side_a = reference_assign_split(keys, cfg, hash64)
    a = [item for item, key in zip(items, keys) if key in side_a]
    b = [item for item, key in zip(items, keys) if key not in side_a]
    return a, b


def reference_split_corpus(records, cfg, hash64=seeded_hash64) -> tuple[list, list]:
    """A document is its source; a line is its source and physical line."""
    if cfg.unit is SplitUnit.DOCUMENT:
        keys = [r.source_id for r in records]
    else:
        keys = [f"{r.source_id}\x1f{r.line_no}" for r in records]
    return reference_partition(records, keys, cfg, hash64)


def reference_split_articles(articles, cfg, hash64=seeded_hash64) -> tuple[list, list]:
    return reference_partition(articles, [f"article\x1f{i}" for i in range(len(articles))], cfg, hash64)


# --- BPE --------------------------------------------------------------------

def word_to_symbols(word: str, alphabet=None, unk: str = "<unk>") -> tuple[str, ...]:
    """Characters with the marker on the last one. With an alphabet, a
    character outside it is the unknown surface, unmarked at the end too."""
    known = [alphabet is None or ch in alphabet for ch in word]
    syms = [ch if ok else unk for ch, ok in zip(word, known)]
    if known[-1]:
        syms[-1] += WORD_END
    return tuple(syms)


def reference_char_counts(lines) -> Counter:
    """Each line's characters, one at a time, whitespace left out."""
    counts: Counter = Counter()
    for line in lines:
        for ch in line:
            if not ch.isspace():
                counts[ch] += 1
    return counts


def merge_pair(syms: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and (syms[i], syms[i + 1]) == pair:
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def quadratic_bpe_merges(word_counts: dict[str, int], n_merges: int) -> list[tuple[str, str]]:
    """Recount every pair from scratch each iteration; highest count wins,
    ties to the lexicographically smallest pair."""
    words = [(word_to_symbols(w), n) for w, n in word_counts.items()]
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pairs: Counter = Counter()
        for syms, n in words:
            for p in zip(syms, syms[1:]):
                pairs[p] += n
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        words = [(merge_pair(syms, best), n) for syms, n in words]
    return merges


def rank_ordered_segment(word: str, merges: list[tuple[str, str]], alphabet=None,
                         unk: str = "<unk>") -> list[str]:
    """Apply the lowest-ranked applicable merge, leftmost occurrence first,
    until no merge applies."""
    ranks: dict[tuple[str, str], int] = {}
    for i, p in enumerate(merges):
        ranks.setdefault(p, i)
    syms = list(word_to_symbols(word, alphabet, unk))
    while True:
        candidates = [
            (ranks[(a, b)], i)
            for i, (a, b) in enumerate(zip(syms, syms[1:]))
            if (a, b) in ranks
        ]
        if not candidates:
            return syms
        _, i = min(candidates)
        syms[i:i + 2] = [syms[i] + syms[i + 1]]


# --- tweets -----------------------------------------------------------------
# The per-character detokenizer and the per-call entity regex the library
# used before it stripped tokens against character sets and compiled each
# entity pattern once, and the three collapse passes (links, then mentions,
# then hashtags) it used before collapsing all three in one pass.

def reference_moses_detokenize(text: str) -> str:
    out = ""
    glue = True
    for tok in text.split():
        if out and all(c in ".,!?;:%" or c in ")]}" for c in tok):
            out += tok
            glue = False
            continue
        if not glue:
            out += " "
        out += tok
        glue = all(c in "([{" for c in tok)
    return out


def reference_decode_html_entities(text: str, entity_map) -> str:
    if not entity_map:
        return text
    pattern = re.compile("|".join(re.escape(k) for k in sorted(entity_map, key=len, reverse=True)))
    return pattern.sub(lambda m: entity_map[m.group(0)], text)


def _collapse_prefixed(text: str, prefix: str, replacement: str) -> str:
    return " ".join(replacement if t.startswith(prefix) and len(t) > 1 else t for t in text.split())


def reference_collapse_tokens(text: str) -> str:
    text = " ".join("[LINK]" if t.lower().startswith(("http://", "https://", "www.")) else t
                    for t in text.split())
    text = _collapse_prefixed(text, "@", "[MENTION]")
    return _collapse_prefixed(text, "#", "[HASHTAG]")
