from collections import Counter

import pytest

from corpuskit.core import EncodingError
from corpuskit.ingest import (
    BitextRecord,
    Side,
    extract_bitext_side,
    read_articles,
    read_paired_bitext,
    read_plain_corpus,
    read_tsv_bitext,
)


def test_plain_skips_blank_lines_and_keeps_line_numbers():
    counts = Counter()
    recs = list(read_plain_corpus([b"a\n", b"\n", b"b\n"], "src", counts))
    assert [(r.text, r.line_no) for r in recs] == [("a", 1), ("b", 3)]
    assert counts["lines"] == 3 and counts["empty"] == 1


def test_plain_empty_file():
    assert list(read_plain_corpus([], "src")) == []


def test_plain_identity_passthrough():
    recs = list(read_plain_corpus([b"a\n", b"b\n"], "src"))
    assert [(r.text, r.source_id, r.line_no) for r in recs] == [("a", "src", 1), ("b", "src", 2)]


def test_plain_decodes_bytes_with_context():
    recs = list(read_plain_corpus([b"caf\xc3\xa9\n"], "src"))
    assert recs[0].text == "café"
    with pytest.raises(EncodingError) as exc:
        list(read_plain_corpus([b"ok\n", b"\xff bad\n"], "oscar"))
    assert "oscar" in str(exc.value) and "line 2" in str(exc.value)


def test_tsv_bitext_parsing():
    counts = Counter()
    recs = list(read_tsv_bitext([b"hello\tkamusta\n", b"bad line\n", b"\n", b"hi\tuy\n"], "cc", counts))
    assert recs == [BitextRecord("hello", "kamusta", 1), BitextRecord("hi", "uy", 4)]
    assert counts["malformed"] == 1 and counts["empty"] == 1


@pytest.mark.parametrize("line, pair", [
    (b"\tkamusta\n", ("", "kamusta")),      # leading tab: empty source side
    (b"hello\t\n", ("hello", "")),          # trailing tab: empty target side
    (b"hello\t   \n", ("hello", "")),       # whitespace-only target side
    (b"  \t kamusta \n", ("", "kamusta")),  # whitespace-only source side
    (b"hello\t\r\n", ("hello", "")),        # CRLF terminator: empty target side
])
def test_tsv_empty_side_is_a_pair_not_malformed(line, pair):
    counts = Counter()
    recs = list(read_tsv_bitext([line], "cc", counts))
    assert recs == [BitextRecord(*pair, 1)]
    assert counts["malformed"] == 0 and counts["empty"] == 0
    side = Side.SOURCE if not pair[0] else Side.TARGET
    assert list(extract_bitext_side(recs, side, "cc", counts)) == []
    assert counts["empty_side"] == 1


def test_tsv_whitespace_only_line_is_empty():
    counts = Counter()
    assert list(read_tsv_bitext([b" \t \n", b"\t\n"], "cc", counts)) == []
    assert counts["empty"] == 2 and counts["malformed"] == 0


def test_paired_bitext_zips_lines():
    recs = list(read_paired_bitext([b"a\n", b"b\n"], [b"x\n", b"y\n"], "p"))
    assert recs == [BitextRecord("a", "x", 1), BitextRecord("b", "y", 2)]


def test_paired_bitext_unequal_lengths_error():
    with pytest.raises(ValueError, match="ends at line"):
        list(read_paired_bitext([b"a\n", b"b\n"], [b"x\n"], "p"))


def test_extract_side_target():
    recs = list(extract_bitext_side([BitextRecord("hello", "kamusta", 1)], Side.TARGET, "cc"))
    assert [r.text for r in recs] == ["kamusta"]


def test_extract_side_source():
    recs = list(extract_bitext_side([BitextRecord("hello", "kamusta", 1)], Side.SOURCE, "cc"))
    assert [r.text for r in recs] == ["hello"]


def test_extract_empty_input():
    assert list(extract_bitext_side([], Side.TARGET, "cc")) == []


def test_extract_does_not_dedup():
    pairs = [BitextRecord("a", "same", 1), BitextRecord("b", "same", 2)]
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc"))
    assert [r.text for r in recs] == ["same", "same"]


def test_extract_skips_empty_side_and_counts():
    counts = Counter()
    pairs = [BitextRecord("a", "", 1), BitextRecord("b", "y", 2)]
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc", counts))
    assert [(r.text, r.line_no) for r in recs] == [("y", 2)]
    assert counts["empty_side"] == 1


def test_extract_numbers_records_by_physical_line():
    # the blank line and the line without a tab are skipped, not renumbered
    pairs = read_tsv_bitext([b"\n", b"orphan\n", b"a\tb\n"], "cc")
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc"))
    assert [(r.text, r.source_id, r.line_no) for r in recs] == [("b", "cc", 3)]
    pairs = read_paired_bitext([b"a\n", b"\n", b"c\n"], [b"x\n", b"y\n", b"z\n"], "p")
    recs = list(extract_bitext_side(pairs, Side.SOURCE, "p"))
    assert [(r.text, r.line_no) for r in recs] == [("a", 1), ("c", 3)]


def test_extract_preserves_order():
    pairs = [BitextRecord(str(i), f"t{i}", i + 1) for i in range(50)]
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc"))
    assert [r.text for r in recs] == [f"t{i}" for i in range(50)]


def test_read_articles_blank_line_blocks():
    lines = [b"s1\n", b"s2\n", b"\n", b"t1\n", b"t2\n", b"t3\n", b"\n", b"\n", b"u1\n"]
    arts = list(read_articles(lines))
    assert arts == [["s1", "s2"], ["t1", "t2", "t3"], ["u1"]]


def test_read_articles_refuses_a_lone_carriage_return():
    # a CR-LF terminator is stripped; a CR inside the line is not one
    assert list(read_articles([b"s1\r\n", b"s2\n"])) == [["s1", "s2"]]
    with pytest.raises(ValueError, match=r"^news:2: record text contains a line terminator: 's2\\rs3'$"):
        list(read_articles([b"s1\n", b"s2\rs3\n"], "news"))
