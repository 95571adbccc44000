import sys
from dataclasses import asdict, fields, replace

import pytest

from corpuskit.core import RejectReason
from corpuskit.filters import (
    FILTER_CHAIN,
    FilterConfig,
    _not_latin,
    _punct_run_candidates,
    apply_filters,
    filter_avg_word_len,
    filter_html,
    filter_length,
    filter_non_latin,
    filter_punct_run,
    is_punct,
)

import oracles
from fixtures import filter_boundary_fixture

CFG = FilterConfig()


# --- individual filters ------------------------------------------------------

def test_non_latin_rejects_heavy_cyrillic():
    # "abc где": 6 visible chars, 3 foreign letters -> 0.5 > 0.15
    v = filter_non_latin("abc где", CFG)
    assert not v.passed and v.reason is RejectReason.NON_LATIN


def test_non_latin_boundary_is_strict():
    assert filter_non_latin("б" * 15 + "a" * 85, CFG).passed  # exactly 15%
    assert not filter_non_latin("б" * 16 + "a" * 84, CFG).passed


def test_non_latin_all_latin_passes():
    assert filter_non_latin("kamusta po", CFG).passed


def test_non_latin_digits_and_punct_dilute_only():
    # digits are not letters: they sit in the denominator only
    assert not filter_non_latin("где 12345", CFG).passed  # 3/8 foreign
    assert filter_non_latin("где 1234567890 1234567890", CFG).passed  # 3/23 foreign
    assert filter_non_latin("x" + "0" * 95 + " где", CFG).passed  # 3/99 foreign


def test_non_latin_does_not_count_unicode_whitespace():
    cfg = FilterConfig(nonlatin_max_ratio=0.4)
    for space in ("\u00a0", "\u3000", "\u2028", "\x1f"):
        assert not filter_non_latin(f"б{space}a", cfg).passed, repr(space)  # 1/2 visible, not 1/3


def test_non_latin_empty_passes():
    assert filter_non_latin("", CFG).passed


def test_latin_table_handles_accents():
    # at a share of 0, one foreign letter rejects the line
    strict = FilterConfig(nonlatin_max_ratio=0.0)
    for ch in "añÑéüÉ":
        assert oracles.reference_is_latin(ch)
        assert filter_non_latin(ch, strict).passed, ch
    for ch in "гдβ漢あ":
        assert not oracles.reference_is_latin(ch)
        assert not filter_non_latin(ch, strict).passed, ch


def test_length_bounds():
    assert not filter_length("isa dalawa tatlo", CFG).passed
    assert filter_length("isa dalawa tatlo apat", CFG).passed
    assert filter_length(" ".join(["x"] * 150), CFG).passed
    assert not filter_length(" ".join(["x"] * 151), CFG).passed
    assert not filter_length("", CFG).passed


def test_punct_run_examples():
    assert not filter_punct_run("see /// this", CFG).passed
    assert filter_punct_run("one-two, three", CFG).passed
    assert filter_punct_run("wow!!", CFG).passed
    assert not filter_punct_run("wow!!!", CFG).passed


def test_punct_run_mixed_characters_count():
    assert not filter_punct_run("ano?!?", CFG).passed


def test_punct_run_does_not_cross_tokens():
    # ".. .." has runs of 2 in each token, never 4
    assert filter_punct_run(".. ..", CFG).passed


def test_punct_run_ascii_table_agrees_with_is_punct():
    # every ASCII codepoint, run lengths around each threshold, alone and
    # inside a token; a run as long as the line itself is found, one longer is not
    for cp in range(0x80):
        for n in range(1, 5):
            for text in (chr(cp) * n, "a" + chr(cp) * n + "b"):
                for limit in range(-1, 5):
                    cfg = FilterConfig(punct_run_max=limit)
                    assert filter_punct_run(text, cfg).passed == oracles.reference_punct_run(text, cfg), \
                        (hex(cp), n, text, limit)


def test_punct_run_huge_threshold_passes():
    for text in ("!!!!", "¡¡¡¡", ""):
        assert filter_punct_run(text, FilterConfig(punct_run_max=10**15)).passed


def test_avg_word_len_examples():
    assert not filter_avg_word_len("hi to me an", CFG).passed  # 8/4 = 2.0
    assert not filter_avg_word_len("a" * 20, CFG).passed  # 20 > 18
    assert filter_avg_word_len("good morning", CFG).passed  # 11/2 = 5.5
    assert filter_avg_word_len("", CFG).passed  # zero tokens: length's job


def test_html_examples():
    assert not filter_html("visit http://example.org now", CFG).passed
    assert not filter_html("bought from shop.com yesterday", CFG).passed
    assert filter_html("committee meeting", CFG).passed


def test_html_case_insensitive():
    assert not filter_html("VISIT WWW.SITE.PH NOW", CFG).passed
    assert not filter_html("a HREF=x b", CFG).passed


def test_html_patterns_are_lowered_too():
    cfg = FilterConfig(html_patterns=("HREF=", "WWW.", "Σ"))
    assert not filter_html("a href=x b", cfg).passed
    assert not filter_html("see Www.site now", cfg).passed
    assert not filter_html("ΣΟΦΙΑ here", cfg).passed
    assert filter_html("ΟΔΟΣ here", cfg).passed  # a word-final capital sigma lowers to ς, not σ
    assert filter_html("plain words only", cfg).passed


def test_html_no_pattern_matches_nothing_and_an_empty_pattern_matches_every_token():
    # validate refuses both configs, yet the verdicts follow the per-token reference
    assert filter_html("visit http://example.org now", FilterConfig(html_patterns=())).passed
    assert not filter_html("!", FilterConfig(html_patterns=("",))).passed
    assert filter_html(" ", FilterConfig(html_patterns=("",))).passed  # no token


@pytest.mark.parametrize("pattern", FilterConfig().html_patterns)
def test_html_every_default_pattern_rejects(pattern):
    assert not filter_html(f"token {pattern}x here", CFG).passed


# --- composition -------------------------------------------------------------

def test_apply_filters_order():
    v = apply_filters("где /// x", CFG)
    assert v.reason is RejectReason.NON_LATIN  # not PunctRun: order matters


def test_apply_filters_clean_line():
    assert apply_filters("isang magandang umaga po", CFG).passed


def test_apply_filters_empty_is_length():
    assert apply_filters("", CFG).reason is RejectReason.LENGTH


def test_pass_iff_all_pass():
    rows = filter_boundary_fixture()
    for row in rows:
        individual = [f(row.text, CFG).passed for f in FILTER_CHAIN]
        assert apply_filters(row.text, CFG).passed == all(individual)


# --- oracle agreement and properties ------------------------------------------

def test_boundary_fixture_matches_oracle_and_labels():
    rows = filter_boundary_fixture()
    oracle_fns = {
        "non_latin": lambda t: oracles.non_latin_ok(t, CFG.nonlatin_max_ratio),
        "length": lambda t: oracles.length_ok(t, CFG.min_tokens, CFG.max_tokens),
        "punct": lambda t: oracles.punct_run_ok(t, CFG.punct_run_max),
        "awl": lambda t: oracles.awl_ok(t, CFG.awl_min, CFG.awl_max),
        "html": lambda t: oracles.html_ok(t, CFG.html_patterns),
    }
    lib_fns = {
        "non_latin": filter_non_latin,
        "length": filter_length,
        "punct": filter_punct_run,
        "awl": filter_avg_word_len,
        "html": filter_html,
    }
    for row in rows:
        for name, lib in lib_fns.items():
            got = lib(row.text, CFG).passed
            assert got == oracle_fns[name](row.text), (name, row.text)
            if name in row.expect:
                assert got == row.expect[name], (name, row.text)
        composed = apply_filters(row.text, CFG).reason.value
        assert composed == oracles.first_reject_reason(row.text, CFG), row.text
        assert composed == row.composed, row.text


def _widen(cfg: FilterConfig) -> FilterConfig:
    return FilterConfig(
        nonlatin_max_ratio=min(1.0, cfg.nonlatin_max_ratio + 0.2),
        min_tokens=max(1, cfg.min_tokens - 2),
        max_tokens=cfg.max_tokens + 50,
        punct_run_max=cfg.punct_run_max + 2,
        awl_min=max(0.5, cfg.awl_min - 1),
        awl_max=cfg.awl_max + 5,
        html_patterns=cfg.html_patterns,
    )


def test_threshold_monotonicity():
    wide = _widen(CFG)
    for row in filter_boundary_fixture():
        if apply_filters(row.text, CFG).passed:
            assert apply_filters(row.text, wide).passed, row.text


def test_filtering_idempotent_over_corpora():
    rows = [r.text for r in filter_boundary_fixture()]
    kept = [t for t in rows if apply_filters(t, CFG).passed]
    assert [t for t in kept if apply_filters(t, CFG).passed] == kept


def test_config_validation():
    assert FilterConfig().validate() == []
    bad = FilterConfig(nonlatin_max_ratio=1.5, min_tokens=0, awl_min=0, punct_run_max=0, html_patterns=())
    assert len(bad.validate()) == 5


@pytest.mark.parametrize("patterns", [("a b",), ("",), ("ok", "x\u3000y"), ("\t",)],
                         ids=["space", "empty", "ideographic-space", "tab"])
def test_config_validation_rejects_dead_html_patterns(patterns):
    # a token holds no whitespace, so "a b" never matches; "" matches every token
    problems = FilterConfig(html_patterns=patterns).validate()
    assert len(problems) == 1 and "html_patterns" in problems[0] and repr(patterns[-1]) in problems[0]


# --- matchers a config builds on first use -----------------------------------

def test_a_replaced_config_gives_the_new_thresholds_verdicts():
    # An ASCII and a non-ASCII punctuation run of each length 1..4, and two
    # links: between them they reach every matcher a config builds. None may
    # carry over from the used config, whether the threshold rises or falls.
    runs = [f"wait{'.' * n} now" for n in range(1, 5)] + [f"{'¿' * n} qué pasa" for n in range(1, 5)]
    links = ["see example.org", "see www.x"]

    def verdicts(cfg):
        return [filter_punct_run(t, cfg).passed for t in runs], [filter_html(t, cfg).passed for t in links]

    used = FilterConfig()
    assert verdicts(used) == ([n <= 2 for n in range(1, 5)] * 2, [True, False])
    for punct_run_max in (1, 3):
        replaced = replace(used, punct_run_max=punct_run_max, html_patterns=(".org",))
        assert verdicts(replaced) == ([n <= punct_run_max for n in range(1, 5)] * 2, [False, True])
    assert verdicts(used) == ([n <= 2 for n in range(1, 5)] * 2, [True, False])  # it keeps its own


def test_matchers_built_on_first_use_are_not_fields():
    used, unused = FilterConfig(punct_run_max=3), FilterConfig(punct_run_max=3)
    for text in ("wait.... now", "¿¿¿¿ qué pasa", "visit www.x now"):
        for f in FILTER_CHAIN:
            f(text, used)
    assert len(vars(used)) > len(vars(unused))  # the used one holds its matchers
    assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
    assert asdict(used) == asdict(unused)
    assert [f.name for f in fields(FilterConfig)] == [
        "nonlatin_max_ratio", "min_tokens", "max_tokens", "punct_run_max", "awl_min", "awl_max", "html_patterns",
    ]


# --- facts the whole-line fast paths rely on ----------------------------------

def test_fast_path_facts_hold_on_every_codepoint():
    one_candidate = _punct_run_candidates(0)  # threshold 0: any single candidate matches
    not_latin = _not_latin()
    ascii_not_latin, punct_outside_class, space_punct, not_latin_mismatch = [], [], [], []
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        if cp < 0x80 and ch.isalpha() and not oracles.reference_is_latin(ch):
            ascii_not_latin.append(hex(cp))
        if is_punct(ch):
            if not one_candidate.fullmatch(ch):
                punct_outside_class.append(hex(cp))
            if ch.isspace():
                space_punct.append(hex(cp))
        if bool(not_latin.fullmatch(ch)) != (cp >= 0x80 and not oracles.reference_is_latin(ch)):
            not_latin_mismatch.append(hex(cp))
    assert ascii_not_latin == []  # so an ASCII line has no foreign letter
    assert punct_outside_class == []  # so the punct_run candidate scan misses no run
    assert space_punct == []  # so no punctuation run crosses a token boundary
    assert not_latin_mismatch == []  # the non-ASCII scan class is exactly "not Latin"


def test_lowering_a_line_lowers_each_token_alone():
    # final sigma is the only context rule of str.lower(); it must not see
    # across whitespace, or filter_html's whole-line test could miss a token
    for cp in range(sys.maxunicode + 1):
        w = chr(cp)
        if w.isspace():
            assert ("A" + w + "Σ").lower() == "a" + w.lower() + "σ", hex(cp)
            assert ("AΣ" + w + "B").lower() == "aς" + w.lower() + "b", hex(cp)


def _random_noisy_line(rng):
    pieces = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.random()
        if kind < 0.15:
            pieces.append("".join(rng.choice("гдежз") for _ in range(rng.randrange(1, 6))))
        elif kind < 0.25:
            pieces.append(rng.choice(["///", "?!?", "..", "a--b", "x!!!y", "wow!!"]))
        elif kind < 0.35:
            pieces.append(rng.choice(["shop.com", "http://x.y", "www.z.ph", "a</b", "c/>d", "index.php"]))
        elif kind < 0.45:
            pieces.append("".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randrange(15, 30))))
        else:
            pieces.append("".join(rng.choice("kamotinglbs") for _ in range(rng.randrange(1, 9))))
    return " ".join(pieces)


def test_thousand_random_lines_agree_with_oracle():
    import random

    rng = random.Random(606)
    for _ in range(1000):
        text = _random_noisy_line(rng)
        assert apply_filters(text, CFG).reason.value == oracles.first_reject_reason(text, CFG), text
