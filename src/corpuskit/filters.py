"""Line-quality filters for crawled and machine-aligned corpora.

Five heuristics, applied in a fixed order so per-reason statistics are
reproducible: script ratio, token count, punctuation runs, average word
length, HTML/URL residue. Each one is a pure function of (text, config),
and takes the line's tokens, text.split(), as an optional third argument:
apply_filters splits each line once and hands every filter the same list.
Only the first rejection reason is recorded by apply_filters.

What a filter needs from its thresholds beyond the numbers themselves (the
HTML alternation, the punctuation-run needle and regex) is built once per
FilterConfig, on first use, and kept on that instance; it is not a field,
so equality, hashing, repr and dataclasses.replace see only the thresholds.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from typing import Callable

from .core import PASS, FilterVerdict, RejectReason

DEFAULT_HTML_PATTERNS = (
    "http://",
    "https://",
    "www.",
    ".com",
    ".html",
    ".php",
    "href=",
    "</",
    "/>",
)


class _built_once:
    """A value a FilterConfig derives from its fields: built on first read,
    then stored as a plain instance attribute, which shadows this
    descriptor from then on. It is stored with object.__setattr__, not
    through __dict__ as functools.cached_property does: on CPython 3.11 and
    later, reading an instance's __dict__ slows every later attribute read
    on that instance, and the filters read config fields on every line."""

    def __init__(self, build: Callable):
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, cfg, owner=None):
        if cfg is None:
            return self
        value = self.build(cfg)
        object.__setattr__(cfg, self.name, value)
        return value


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds for the five quality filters.

    Defaults: reject above 15% non-Latin letters, keep 4..150 tokens,
    reject punctuation runs longer than 2, keep average word length in
    [3, 18], reject any token carrying an HTML/URL fragment.
    """

    nonlatin_max_ratio: float = 0.15
    min_tokens: int = 4
    max_tokens: int = 150
    punct_run_max: int = 2
    awl_min: float = 3.0
    awl_max: float = 18.0
    html_patterns: tuple[str, ...] = DEFAULT_HTML_PATTERNS

    def validate(self) -> list[str]:
        """Return a list of invariant violations; empty means the config is usable."""
        problems = []
        if not 0.0 <= self.nonlatin_max_ratio <= 1.0:
            problems.append(f"nonlatin_max_ratio must be in [0, 1], got {self.nonlatin_max_ratio}")
        if not 1 <= self.min_tokens <= self.max_tokens:
            problems.append(f"need 1 <= min_tokens <= max_tokens, got {self.min_tokens}..{self.max_tokens}")
        if not 0 < self.awl_min <= self.awl_max:
            problems.append(f"need 0 < awl_min <= awl_max, got {self.awl_min}..{self.awl_max}")
        if self.punct_run_max < 1:
            problems.append(f"punct_run_max must be >= 1, got {self.punct_run_max}")
        if not self.html_patterns:
            problems.append("html_patterns must not be empty")
        for p in self.html_patterns:
            # A token holds no whitespace, so such a pattern never matches;
            # an empty one matches every token.
            if p.split() != [p]:
                problems.append(f"html_patterns entries must be non-empty and hold no whitespace, got {p!r}")
        return problems

    # Matchers derived from the thresholds, built on first use and kept on
    # the instance. They are not fields.

    @_built_once
    def _html_search(self) -> Callable[[str], re.Match | None]:
        """search() of one regex that matches exactly where some lowered
        pattern occurs. With no pattern the alternation would be empty and
        match everywhere, so (?!), which matches nowhere, stands in."""
        patterns = self.html_patterns
        return re.compile("|".join(re.escape(p.lower()) for p in patterns) if patterns else "(?!)").search

    @_built_once
    def _punct_zero_run(self) -> bytes:
        """The run of zero bytes that marks a rejected run in an ASCII line
        mapped through _PUNCT_ZEROS. filter_punct_run reads it only for a
        line longer than punct_run_max, so it is never longer than a line."""
        return b"\0" * (max(self.punct_run_max, 0) + 1)

    @_built_once
    def _punct_candidate_runs(self) -> re.Pattern:
        return _punct_run_candidates(self.punct_run_max)


# Codepoint ranges of the Unicode Latin script (letters only are relevant:
# every check below is gated on isalpha(), so overshoot into unassigned or
# symbol codepoints is harmless). Covers ASCII, Latin-1, Extended-A/B, IPA,
# phonetic extensions, Extended Additional/C/D/E, ligatures and fullwidth.
_LATIN_RANGES = (
    (0x0041, 0x005A), (0x0061, 0x007A), (0x00AA, 0x00AA), (0x00BA, 0x00BA),
    (0x00C0, 0x00D6), (0x00D8, 0x00F6), (0x00F8, 0x02B8), (0x02E0, 0x02E4),
    (0x1D00, 0x1D25), (0x1D2C, 0x1D5C), (0x1D62, 0x1D65), (0x1D6B, 0x1D77),
    (0x1D79, 0x1DBE), (0x1E00, 0x1EFF), (0x2071, 0x2071), (0x207F, 0x207F),
    (0x2090, 0x209C), (0x212A, 0x212B), (0x2132, 0x2132), (0x214E, 0x214E),
    (0x2160, 0x2188), (0x2C60, 0x2C7F), (0xA722, 0xA787), (0xA78B, 0xA7CA),
    (0xA7D0, 0xA7D9), (0xA7F2, 0xA7FF), (0xAB30, 0xAB5A), (0xAB5C, 0xAB69),
    (0xFB00, 0xFB06), (0xFF21, 0xFF3A), (0xFF41, 0xFF5A),
    (0x10780, 0x107BA), (0x1DF00, 0x1DF2A),
)


# ASCII punctuation per the Unicode general category P, derived rather than
# hand-listed ($ + < = > ^ ` | ~ are symbols, not punctuation).
_ASCII_PUNCT = frozenset(
    chr(c) for c in range(0x80) if unicodedata.category(chr(c)).startswith("P")
)


def is_punct(ch: str) -> bool:
    if ch in _ASCII_PUNCT:
        return True
    if ord(ch) < 0x80:
        return False
    return unicodedata.category(ch).startswith("P")


_REJECT_NON_LATIN = FilterVerdict(False, RejectReason.NON_LATIN)
_REJECT_LENGTH = FilterVerdict(False, RejectReason.LENGTH)
_REJECT_PUNCT_RUN = FilterVerdict(False, RejectReason.PUNCT_RUN)
_REJECT_AVG_WORD_LEN = FilterVerdict(False, RejectReason.AVG_WORD_LEN)
_REJECT_HTML = FilterVerdict(False, RejectReason.HTML)


@functools.cache
def _not_latin() -> re.Pattern:
    """Codepoints that are neither ASCII nor in a Latin range: the only ones
    that can count as foreign letters (every ASCII letter is Latin). Compiled
    on first use, since it takes about a millisecond and ASCII text never
    needs it."""
    latin = "".join(rf"\U{lo:08x}-\U{hi:08x}" for lo, hi in _LATIN_RANGES)
    return re.compile(rf"[^\x00-\x7f{latin}]")


def filter_non_latin(text: str, cfg: FilterConfig, tokens: list[str] | None = None) -> FilterVerdict:
    """Reject when non-Latin letters exceed the allowed share of visible characters.

    Denominator: every non-whitespace codepoint. Numerator: alphabetic
    codepoints outside the Latin script (digits and punctuation count toward
    the denominator only). Empty text passes; the length filter owns that case.
    """
    foreign = 0 if text.isascii() else sum(map(str.isalpha, _not_latin().findall(text)))
    if not foreign and cfg.nonlatin_max_ratio >= 0:
        return PASS  # a share of 0 never exceeds the threshold
    # str.split() and str.isspace() share one whitespace predicate.
    visible = sum(map(len, text.split() if tokens is None else tokens))
    if visible > 0 and foreign / visible > cfg.nonlatin_max_ratio:
        return _REJECT_NON_LATIN
    return PASS


def filter_length(text: str, cfg: FilterConfig, tokens: list[str] | None = None) -> FilterVerdict:
    n = len(text.split() if tokens is None else tokens)
    if cfg.min_tokens <= n <= cfg.max_tokens:
        return PASS
    return _REJECT_LENGTH


# Candidate class: ASCII punctuation plus every non-ASCII codepoint, a
# superset of Unicode punctuation that holds no ASCII letter, digit or space.
# Written as a negated ASCII class, which compiles without a 64K-entry map.
_PUNCT_CANDIDATES = "[^" + "".join(
    re.escape(chr(c)) for c in range(0x80) if chr(c) not in _ASCII_PUNCT
) + "]"


def _punct_run_candidates(punct_run_max: int) -> re.Pattern:
    # A rejected run is at least max(1, punct_run_max + 1) long, so any
    # minimum from 1 up to that finds it (the count inside each match
    # decides); clamping keeps every threshold a valid repeat count.
    return re.compile(f"{_PUNCT_CANDIDATES}{{{min(max(punct_run_max, 0), 65535) + 1},}}")


# Byte table for ASCII lines: ASCII punctuation maps to 0, every other byte to 1.
_PUNCT_ZEROS = bytes(0 if chr(b) in _ASCII_PUNCT else 1 for b in range(256))


def filter_punct_run(text: str, cfg: FilterConfig, tokens: list[str] | None = None) -> FilterVerdict:
    """Reject tokens like "///": more than punct_run_max consecutive punctuation
    codepoints, identical or not.

    No whitespace codepoint is punctuation, so a run never crosses tokens and
    the whole line can be scanned at once. A line no longer than
    punct_run_max cannot hold a rejected run and passes at once. An ASCII
    line is mapped through a byte table and searched for a rejected run of
    zeros. Other lines count only maximal runs of candidate codepoints long
    enough to hold a rejected run, one by one. The tokens are not needed.
    """
    if len(text) <= cfg.punct_run_max:
        return PASS
    if text.isascii():
        return _REJECT_PUNCT_RUN if cfg._punct_zero_run in text.encode("ascii").translate(_PUNCT_ZEROS) else PASS
    for m in cfg._punct_candidate_runs.finditer(text):
        run = 0
        for ch in m.group():
            if is_punct(ch):
                run += 1
                if run > cfg.punct_run_max:
                    return _REJECT_PUNCT_RUN
            else:
                run = 0
    return PASS


def filter_avg_word_len(text: str, cfg: FilterConfig, tokens: list[str] | None = None) -> FilterVerdict:
    """Keep sentences whose mean token length (in codepoints, punctuation
    included) falls inside [awl_min, awl_max]. Zero tokens pass; the length
    filter owns empty lines."""
    if tokens is None:
        tokens = text.split()
    if not tokens:
        return PASS
    ratio = len("".join(tokens)) / len(tokens)
    if cfg.awl_min <= ratio <= cfg.awl_max:
        return PASS
    return _REJECT_AVG_WORD_LEN


def filter_html(text: str, cfg: FilterConfig, tokens: list[str] | None = None) -> FilterVerdict:
    """Reject any token carrying an HTML or URL fragment, case-insensitively.

    No whitespace codepoint is cased or case-ignorable, so lowering the line
    lowers each token as if alone (final sigma included): a pattern absent
    from the lowered line is absent from every lowered token.
    """
    search = cfg._html_search
    if not search(text.lower()):
        return PASS
    for token in text.split() if tokens is None else tokens:
        if search(token.lower()):
            return _REJECT_HTML
    return PASS


# Enumeration order is the reporting order: the first rejecting filter names
# the reason, later filters never run.
FILTER_CHAIN = (
    filter_non_latin,
    filter_length,
    filter_punct_run,
    filter_avg_word_len,
    filter_html,
)


def apply_filters(text: str, cfg: FilterConfig) -> FilterVerdict:
    """Run all five filters in order on one split of the line; return the
    first rejection or a pass."""
    tokens = text.split()
    for f in FILTER_CHAIN:
        verdict = f(text, cfg, tokens)
        if not verdict.passed:
            return verdict
    return PASS
