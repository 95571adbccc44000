import dataclasses
import random

import pytest

from corpuskit.core import (
    EncodingError,
    FilterVerdict,
    RejectReason,
    SentenceRecord,
    decoded_lines,
)
from corpuskit.filters import FilterConfig, filter_avg_word_len, filter_length
from corpuskit.ingest import read_plain_corpus

# A token is what str.split() returns and a line is what str.strip() leaves.
# The filters count the one and the readers yield the other, so both
# definitions are checked through those entry points.


def _token_count(text: str) -> int:
    """The token count filter_length sees: the one n with min = max = n passing."""
    counts = [n for n in range(64) if filter_length(text, FilterConfig(min_tokens=n, max_tokens=n)).passed]
    assert len(counts) == 1, (text, counts)
    return counts[0]


def _line(raw: bytes) -> list[str]:
    """The texts read_plain_corpus yields for one physical line."""
    return [text for text, _ in read_plain_corpus([raw], "s")]


def test_tokenize_splits_on_whitespace_runs():
    assert _token_count("a  b\tc") == 3
    # three tokens of one character each: a mean word length of exactly 1
    assert filter_avg_word_len("a  b\tc", FilterConfig(awl_min=1.0, awl_max=1.0)).passed


def test_tokenize_empty():
    assert _token_count("") == 0
    assert _token_count(" \t ") == 0


def test_tokenize_keeps_punctuation_tokens():
    # "one-two ///" is two tokens of 7 and 3 characters: a mean of exactly 5
    assert _token_count("one-two ///") == 2
    assert filter_avg_word_len("one-two ///", FilterConfig(awl_min=5.0, awl_max=5.0)).passed


def test_tokenize_unicode_whitespace():
    assert _token_count("a\xa0b\u2009c") == 3


def test_tokenize_join_roundtrip_is_stable():
    rng = random.Random(123)
    alphabet = "ab é. \t\xa0-ñ"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        n = _token_count(text)
        assert n == len(text.split())
        assert _token_count(" ".join(text.split())) == n


def test_normalize_strips_terminator_and_edges():
    assert _line(b"  hello \r\n") == ["hello"]
    assert _line(b"\thello\n") == ["hello"]


def test_normalize_idempotent():
    assert _line(b"hello") == ["hello"]
    for raw in [b"  a b  ", b"x\n", b"\t\tkamusta po\r\n"]:
        (once,) = _line(raw)
        assert _line(once.encode("utf-8")) == [once]
    assert _line(b"") == [] and _line(b" \r\n") == []  # a blank line yields no record


def test_normalize_preserves_codepoints():
    # no NFC/NFD: a combining sequence stays decomposed
    decomposed = "cafe\u0301"
    assert _line(b"cafe\xcc\x81\n") == [decomposed]
    assert _line((decomposed + "\n").encode("utf-8")) == [decomposed]
    assert _line(b"caf\xc3\xa9\n") == ["caf\u00e9"]


def test_decode_line_reports_source_and_line(tmp_path):
    lines = [b"ok\n"] * 16 + [b"\xff\xfe bad"]
    with pytest.raises(EncodingError) as exc:
        list(decoded_lines(lines, "oscar"))
    assert str(exc.value).startswith("invalid UTF-8 in source 'oscar' at line 17: ")
    # a file object is named by its path, not by the source id
    path = tmp_path / "web.txt"
    path.write_bytes(b"".join(lines))
    with open(path, "rb") as f, pytest.raises(EncodingError) as exc:
        list(decoded_lines(f, "oscar"))
    assert str(exc.value).startswith(f"invalid UTF-8 in source '{path}' at line 17: ")
    assert (exc.value.source_id, exc.value.line_no) == (str(path), 17)
    assert list(decoded_lines([b"a\n", b"b\r\n"], "s")) == [(1, "a\n"), (2, "b\r\n")]


def test_record_rejects_line_terminators():
    with pytest.raises(ValueError, match="^s:1: "):
        SentenceRecord("a\nb", "s", 1)
    with pytest.raises(ValueError, match="^web:7: record text contains a line terminator"):
        SentenceRecord("a\rb", "web", 7)


def test_record_rejects_bad_line_no():
    with pytest.raises(ValueError):
        SentenceRecord("ok", "s", 0)


def test_record_is_slotted_and_frozen():
    rec = SentenceRecord("ok", "s", 3)
    assert not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.text = "changed"
    with pytest.raises((AttributeError, TypeError)):
        rec.extra = 1  # no slot and no __dict__ to hold it
    moved = dataclasses.replace(rec, line_no=4)
    assert moved == SentenceRecord("ok", "s", 4) and rec.line_no == 3
    # replace builds a new record, so __post_init__ checks it again
    with pytest.raises(ValueError):
        dataclasses.replace(rec, text="a\rb")
    with pytest.raises(ValueError):
        dataclasses.replace(rec, line_no=0)


def test_verdict_consistency_enforced():
    assert FilterVerdict(True, RejectReason.NONE).passed
    assert FilterVerdict(False, RejectReason.HTML).reason is RejectReason.HTML
    with pytest.raises(ValueError):
        FilterVerdict(True, RejectReason.HTML)
    with pytest.raises(ValueError):
        FilterVerdict(False, RejectReason.NONE)
