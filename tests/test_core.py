import dataclasses
import random

import pytest

from corpuskit.core import (
    EncodingError,
    FilterVerdict,
    RejectReason,
    SentenceRecord,
    decode_line,
    normalize_line,
    tokenize_ws,
)


def test_tokenize_splits_on_whitespace_runs():
    assert tokenize_ws("a  b\tc") == ["a", "b", "c"]


def test_tokenize_empty():
    assert tokenize_ws("") == []


def test_tokenize_keeps_punctuation_tokens():
    assert tokenize_ws("one-two ///") == ["one-two", "///"]


def test_tokenize_unicode_whitespace():
    assert tokenize_ws("a b c") == ["a", "b", "c"]


def test_tokenize_join_roundtrip_is_stable():
    rng = random.Random(123)
    alphabet = "ab é. \t -ñ"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        toks = tokenize_ws(text)
        assert all(toks), "no token may be empty"
        assert tokenize_ws(" ".join(toks)) == toks


def test_normalize_strips_terminator_and_edges():
    assert normalize_line("  hello \r\n") == "hello"


def test_normalize_idempotent():
    assert normalize_line("hello") == "hello"
    for raw in ["  a b  ", "x\n", "\t\tkamusta po\r\n", ""]:
        once = normalize_line(raw)
        assert normalize_line(once) == once


def test_normalize_preserves_codepoints():
    # no NFC/NFD: a combining sequence stays decomposed
    decomposed = "café"
    assert normalize_line(decomposed + "\n") == decomposed
    assert normalize_line("café\n") == "café"


def test_decode_line_reports_source_and_line():
    with pytest.raises(EncodingError) as exc:
        decode_line(b"\xff\xfe bad", "oscar", 17)
    assert "oscar" in str(exc.value)
    assert "17" in str(exc.value)


def test_record_rejects_line_terminators():
    with pytest.raises(ValueError):
        SentenceRecord("a\nb", "s", 1)
    with pytest.raises(ValueError):
        SentenceRecord("a\rb", "s", 1)


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
    assert FilterVerdict.ok().passed
    assert FilterVerdict.reject(RejectReason.HTML).reason is RejectReason.HTML
    with pytest.raises(ValueError):
        FilterVerdict(True, RejectReason.HTML)
    with pytest.raises(ValueError):
        FilterVerdict.reject(RejectReason.NONE)
