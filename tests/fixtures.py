"""Hand-labeled fixtures shared by the unit tests and the acceptance suite,
and the fault injection the commit tests share.

Every expected value here was derived by hand from the documented filter
definitions (counts and ratios are spelled out next to each row) or, for
the tweet cases, by hand-applying the four cleanup stages in order.
"""

from __future__ import annotations

import builtins
import errno
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class FilterRow:
    text: str
    composed: str  # first rejection reason, or "None" for a keeper
    expect: dict[str, bool] = field(default_factory=dict)  # hand-pinned per-filter verdicts


_CLEAN_WORDS = (
    "maganda", "umaga", "araw", "balita", "bayan", "ngayon", "kasama",
    "mahalaga", "paaralan", "guro", "bata", "lungsod", "panahon", "ulat",
)


def _clean_line(i: int) -> str:
    # 5..9 tokens of 4..9 letters: passes every filter by construction
    n = 5 + (i % 5)
    return " ".join(_CLEAN_WORDS[(i + k) % len(_CLEAN_WORDS)] for k in range(n))


def filter_boundary_fixture() -> list[FilterRow]:
    """Exactly 200 rows exercising every documented threshold boundary."""
    rows: list[FilterRow] = []

    def add(text: str, composed: str, **expect: bool):
        rows.append(FilterRow(text, composed, expect))

    # Non-latin share of visible characters: reject only strictly above 15%.
    # 15 Cyrillic letters out of 100 visible -> 0.15, not above -> keeps.
    add("б" * 15 + "a" * 85, "Length", non_latin=True)  # single 100-char token
    add("б" * 16 + "a" * 84, "NonLatin", non_latin=False)
    # same boundary spread over tokens so the composed verdict is exercised:
    # 3x "ббббб" (15 foreign) + 17x "aaaaa" (85 latin) = 20 tokens, awl 5.0
    add(" ".join(["ббббб"] * 3 + ["aaaaa"] * 17), "None", non_latin=True)
    # 4x "бббб" (16 foreign) + 21x "aaaa" (84 latin) = 25 tokens, awl 4.0
    add(" ".join(["бббб"] * 4 + ["aaaa"] * 21), "NonLatin", non_latin=False)
    add("abc где", "NonLatin", non_latin=False)  # 3/6 visible are foreign letters
    add("kamusta po ñora café", "None", non_latin=True)  # accented Latin is Latin
    add("", "Length", non_latin=True)  # zero visible chars pass this filter

    # Token count: keep 4..150.
    add("isa dalawa tatlo", "Length", length=False)
    add("isa dalawa tatlo apat", "None", length=True)
    add(" ".join(["tok"] * 150), "None", length=True)
    add(" ".join(["tok"] * 151), "Length", length=False)

    # Punctuation runs: reject runs longer than 2, identical or mixed.
    add("wow!! na pangyayari ito", "None", punct=True)
    add("wow!!! na pangyayari ito", "PunctRun", punct=False)
    add("ano?!? ba ito ngayon", "PunctRun", punct=False)
    add("tingnan mo ito /// ngayon", "PunctRun", punct=False)
    add("one-two, three po ito", "None", punct=True)
    add("a.. b.. c.. d..", "None", punct=True)  # runs of exactly 2

    # Average word length: keep 3.0..18.0 inclusive.
    add(" ".join(["abc"] * 99 + ["ab"]), "AvgWordLen", awl=False)  # 299/100 = 2.99
    add("abc abc abc abc", "None", awl=True)  # 12/4 = 3.0
    add(" ".join(["abcdefghijklmnopqr"] * 4), "None", awl=True)  # 72/4 = 18.0
    add(" ".join(["abcdefghijklmnopqr"] * 99 + ["abcdefghijklmnopqrs"]),
        "AvgWordLen", awl=False)  # 1801/100 = 18.01
    add("hi to me an", "AvgWordLen", awl=False)  # 8/4 = 2.0

    # HTML/URL fragments: every default pattern, case-insensitive.
    add("visit http://site now please", "PunctRun", html=False)  # :// is also a run of 3
    add("secure https://site now please", "PunctRun", html=False)
    add("go www.example.ph ngayon na", "Html", html=False)
    add("bought from shop.com yesterday", "Html", html=False)
    add("open index.html file now", "Html", html=False)
    add("open index.php file now", "Html", html=False)
    add("click href=link to open", "Html", html=False)
    add("broken </div tag here", "Html", html=False)  # "</" is a run of exactly 2
    add("broken div/> tag here", "Html", html=False)
    add("VISIT WWW.SITE.PH NOW PO", "Html", html=False)
    add("com dot net words only", "None", html=True)  # bare "com" is not ".com"

    # Order of application: the first failing filter names the reason.
    add("где /// x", "NonLatin", non_latin=False, punct=False)
    add("isang magandang umaga po", "None")

    while len(rows) < 200:
        rows.append(FilterRow(_clean_line(len(rows)), "None"))
    assert len(rows) == 200
    return rows


# (input, expected) after the full preprocess_tweet composition; doubling the
# application must reproduce the same output for every case.
TWEET_CASES: list[tuple[str, str]] = [
    # detokenization
    ("Hello , world !", "Hello, world!"),
    ("( laughs )", "(laughs)"),
    ("already clean", "already clean"),
    ("kamusta ka na ?", "kamusta ka na?"),
    ("oo nga ; tama ka", "oo nga; tama ka"),
    ("sabi niya : tara na", "sabi niya: tara na"),
    ("100 % sigurado ako", "100% sigurado ako"),
    ("[ bracket test ]", "[bracket test]"),
    ("ang presyo ( mura )", "ang presyo (mura)"),
    ("wait ...", "wait..."),
    # HTML entities
    ("&amp;", "&"),
    ("&lt;3", "<3"),
    ("AT&T", "AT&T"),
    ("&gt; sign", "> sign"),
    ("say &quot;hi&quot;", 'say "hi"'),
    ("it&#39;s fine", "it's fine"),
    ("a&nbsp;b", "a b"),
    ("&unknown; stays", "&unknown; stays"),
    # links
    ("see http://t.co/abc now", "see [LINK] now"),
    ("no links here", "no links here"),
    ("www.news.ph reports", "[LINK] reports"),
    ("HTTPS://SECURE.PH login", "[LINK] login"),
    ("photo https://pic.io/x4 posted", "photo [LINK] posted"),
    ("wwwdot fake", "wwwdot fake"),
    # mentions: only @-initial tokens longer than 1
    ("@user hello", "[MENTION] hello"),
    ("@ hello", "@ hello"),
    ("mail me a@b", "mail me a@b"),
    ("@a @b @c", "[MENTION] [MENTION] [MENTION]"),
    ("salamat @juan !", "salamat [MENTION]"),
    ("@123 numeric", "[MENTION] numeric"),
    # hashtags: same length-1 boundary
    ("#dengue alert", "[HASHTAG] alert"),
    ("# alone", "# alone"),
    ("item #2", "item [HASHTAG]"),
    ("#OOTD #blessed dito", "[HASHTAG] [HASHTAG] dito"),
    ("C# language", "C# language"),
    # spaced-out apostrophes and hyphens
    ("it 's", "it's"),
    ("one - two", "one-two"),
    ("three -- four", "three -- four"),
    ("iyon 'y ganoon", "iyon'y ganoon"),
    ("don 't stop", "don't stop"),
    ("a - b - c", "a-b-c"),
    ("five - 6", "five-6"),
    ("end -", "end -"),
    # combinations
    ("RT : @user check http://x.co &amp; reply", "RT: [MENTION] check [LINK] & reply"),
    ("plain tagalog sentence", "plain tagalog sentence"),
    (
        "grabe ! @ni_juan #AlDub http://bit.ly/x &amp; si @maria",
        "grabe! [MENTION] [HASHTAG] [LINK] & si [MENTION]",
    ),
    ("BREAKING : VCM owned by Roxas http://pic.tw/a2", "BREAKING: VCM owned by Roxas [LINK]"),
    ("Sa laki ng ginastos ni Binay , sya pa din tameme", "Sa laki ng ginastos ni Binay, sya pa din tameme"),
    ("si @user1 at ang #hashtag1 ay nag - post", "si [MENTION] at ang [HASHTAG] ay nag-post"),
    ("basahin dito : www.balita.ph &gt; ngayon !", "basahin dito: [LINK] > ngayon!"),
]
assert len(TWEET_CASES) == 50


# Six lines that walk one record through every pipeline stage: four filter
# rejections (one per reason except AvgWordLen), one surviving line, one
# exact duplicate of it.
PIPELINE_SIX_LINES = [
    "пример текста на русском языке тут",   # NonLatin
    "tatlong salita lang",                  # Length (3 tokens)
    "tingnan mo ito /// ngayon",            # PunctRun
    "bumili ako sa shop.com kahapon",       # Html
    "magandang umaga sa inyong lahat",      # keeper
    "magandang umaga sa inyong lahat",      # duplicate of the keeper
]


def fail_on_replace(monkeypatch, k: int) -> None:
    """Make the k-th os.replace call from now on raise OSError; every other call runs as usual."""
    real_replace = os.replace
    calls = 0

    def replace(src, dst, **kwargs):
        nonlocal calls
        calls += 1
        if calls == k:
            raise OSError(errno.EIO, "injected replace failure", os.fspath(dst))
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)


def refuse_writes_in(monkeypatch, directory) -> None:
    """Make directory refuse writes from now on, as a read-only file system
    does even for root: opening an entry of it to write and making a
    directory in it raise EACCES naming the path. Mode bits would not stop
    root, so this patches open, io.open and os.mkdir instead."""
    directory = os.path.abspath(directory)
    real_open, real_mkdir = builtins.open, os.mkdir

    def refused(path) -> bool:
        return isinstance(path, (str, os.PathLike)) and os.path.dirname(os.path.abspath(path)) == directory

    def deny(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))

    def open_(file, mode="r", *args, **kwargs):
        if refused(file) and set(mode) & set("wax+"):
            deny(file)
        return real_open(file, mode, *args, **kwargs)

    def mkdir(path, *args, **kwargs):
        if refused(path):
            deny(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(os, "mkdir", mkdir)


@contextmanager
def umask(mask: int):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def by_source(records, sources=()) -> tuple[dict[str, list[int]], list]:
    """What split_corpus takes for records, each with a source_id and a
    line_no: each source's line numbers, and the records in the order of
    split_corpus's positions. Sources are in order of first appearance,
    after those named in sources, which come first even with no record."""
    groups: dict[str, list] = {source: [] for source in sources}
    for r in records:
        groups.setdefault(r.source_id, []).append(r)
    return ({source: [r.line_no for r in group] for source, group in groups.items()},
            [r for group in groups.values() for r in group])


def picked(items, sides) -> tuple[list, list]:
    """The items at split_corpus's side positions: (side A, side B) as lists."""
    return tuple([items[i] for i in side] for side in sides)
