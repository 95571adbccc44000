from collections import Counter
from itertools import islice

import pytest

from corpuskit.core import EncodingError, decoded_lines
from corpuskit.ingest import (
    SKIP_KINDS,
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
    assert recs == [("a", 1), ("b", 3)]
    assert counts["lines"] == 3 and counts["empty"] == 1


def test_plain_empty_file():
    assert list(read_plain_corpus([], "src")) == []


def test_plain_identity_passthrough():
    recs = list(read_plain_corpus([b"a\n", b"b\n"], "src"))
    assert recs == [("a", 1), ("b", 2)]


def test_plain_decodes_bytes_with_context():
    recs = list(read_plain_corpus([b"caf\xc3\xa9\n"], "src"))
    assert recs == [("café", 1)]
    with pytest.raises(EncodingError) as exc:
        list(read_plain_corpus([b"ok\n", b"\xff bad\n"], "oscar"))
    assert "oscar" in str(exc.value) and "line 2" in str(exc.value)


def test_tsv_bitext_parsing():
    counts = Counter()
    recs = list(read_tsv_bitext([b"hello\tkamusta\n", b"bad line\n", b"\n", b"hi\tuy\n"], "cc", counts))
    assert recs == [("hello", "kamusta", 1), ("hi", "uy", 4)]
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
    assert recs == [(*pair, 1)]
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
    assert recs == [("a", "x", 1), ("b", "y", 2)]


def test_paired_bitext_unequal_lengths_error():
    with pytest.raises(ValueError, match="ends at line"):
        list(read_paired_bitext([b"a\n", b"b\n"], [b"x\n"], "p"))


def test_extract_side_target():
    recs = list(extract_bitext_side([BitextRecord("hello", "kamusta", 1)], Side.TARGET, "cc"))
    assert recs == [("kamusta", 1)]


def test_extract_side_source():
    recs = list(extract_bitext_side([BitextRecord("hello", "kamusta", 1)], Side.SOURCE, "cc"))
    assert recs == [("hello", 1)]


def test_extract_empty_input():
    assert list(extract_bitext_side([], Side.TARGET, "cc")) == []


def test_extract_does_not_dedup():
    pairs = [BitextRecord("a", "same", 1), BitextRecord("b", "same", 2)]
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc"))
    assert recs == [("same", 1), ("same", 2)]


def test_extract_skips_empty_side_and_counts():
    counts = Counter()
    pairs = [BitextRecord("a", "", 1), BitextRecord("b", "y", 2)]
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc", counts))
    assert recs == [("y", 2)]
    assert counts["empty_side"] == 1


def test_extract_numbers_records_by_physical_line():
    # the blank line and the line without a tab are skipped, not renumbered
    pairs = read_tsv_bitext([b"\n", b"orphan\n", b"a\tb\n"], "cc")
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc"))
    assert recs == [("b", 3)]
    pairs = read_paired_bitext([b"a\n", b"\n", b"c\n"], [b"x\n", b"y\n", b"z\n"], "p")
    recs = list(extract_bitext_side(pairs, Side.SOURCE, "p"))
    assert recs == [("a", 1), ("c", 3)]


def test_extract_preserves_order():
    pairs = [BitextRecord(str(i), f"t{i}", i + 1) for i in range(50)]
    recs = list(extract_bitext_side(pairs, Side.TARGET, "cc"))
    assert recs == [(f"t{i}", i + 1) for i in range(50)]


def test_bitext_record_names_the_fields_of_a_reader_item():
    rec = BitextRecord(*next(read_tsv_bitext([b"hello\tkamusta\n"], "cc")))
    assert (rec.source_text, rec.target_text, rec.line_no) == ("hello", "kamusta", 1)


# Reader counters, checked against counts derived one decoded line at a time.
_PLAIN = [b"a b\n", b"\n", b" \t \n", b"c\n", b"d e\n", b"\n", b"f\n", b"g\n"]
_TSV = [b"a\tx\n", b"\n", b"orphan\n", b"\ty\n", b"b\t \n", b" \t \n", b"c\tz\n", b"d\tw\n", b"e\tv\n"]
_SOURCE = [b"a\n", b"\n", b"b\n", b"c\n", b" \n", b"d\n", b"e\n"]
_TARGET = [b"x\n", b"y\n", b"\n", b"z\n", b" \n", b"w\n", b"v\n"]
_INPUTS = {"plain": [_PLAIN], "tsv": [_TSV], "paired": [_SOURCE, _TARGET]}
_BAD = b"caf\xe9\n"  # Latin-1, not UTF-8


def _readers(kind, files, side, counts):
    """The reader chain for one input, innermost first."""
    if kind == "plain":
        return [read_plain_corpus(files[0], "s", counts)]
    pairs = read_tsv_bitext(files[0], "s", counts) if kind == "tsv" else read_paired_bitext(*files, "s", counts)
    return [pairs] if side is None else [pairs, extract_bitext_side(pairs, side, "s", counts)]


def _skip_kind(kind, side, row):
    """The counter a reader chain skips this row of lines under, or None if it yields an item."""
    if kind != "paired" and not row[0].strip():
        return "empty"
    if kind == "plain":
        return None
    if kind == "tsv" and "\t" not in row[0]:
        return "malformed"
    pair = [part.strip() for part in (row[0].split("\t", 1) if kind == "tsv" else row)]
    if side is not None and not pair[0 if side is Side.SOURCE else 1]:
        return "empty_side"
    return None


def _derived_counts(kind, files, side, n_items=None):
    """Counts for the lines read until the reader chain has yielded n_items
    items (all, if None) or decoded_lines refuses a line."""
    def decoded(lines):
        try:
            yield from (line for _, line in decoded_lines(lines, "s"))
        except EncodingError:
            return

    counts, items = Counter(), 0
    for row in zip(*map(decoded, files)):  # one line of each file
        if items == n_items:
            break
        counts["lines"] += 1
        skip = _skip_kind(kind, side, row)
        if skip:
            counts[skip] += 1
        else:
            items += 1
    return {key: counts[key] for key in ("lines", *SKIP_KINDS)}


_CHAINS = [("plain", None), ("tsv", None), ("tsv", Side.SOURCE), ("tsv", Side.TARGET),
           ("paired", None), ("paired", Side.SOURCE), ("paired", Side.TARGET)]


@pytest.mark.parametrize("kind, side", _CHAINS)
def test_reader_counts_when_drained(kind, side):
    counts = Counter()
    items = list(_readers(kind, _INPUTS[kind], side, counts)[-1])
    expected = _derived_counts(kind, _INPUTS[kind], side)
    assert {key: counts[key] for key in expected} == expected
    assert len(items) == expected["lines"] - sum(expected[key] for key in SKIP_KINDS)


@pytest.mark.parametrize("kind, side", _CHAINS)
def test_reader_counts_when_closed_early(kind, side):
    counts = Counter()
    readers = _readers(kind, _INPUTS[kind], side, counts)
    assert len(list(islice(readers[-1], 3))) == 3
    for reader in reversed(readers):
        reader.close()
    expected = _derived_counts(kind, _INPUTS[kind], side, n_items=3)
    assert expected["lines"] < len(_INPUTS[kind][0])
    assert {key: counts[key] for key in expected} == expected


@pytest.mark.parametrize("kind, side", _CHAINS)
def test_reader_counts_when_stopped_by_an_encoding_error(kind, side):
    files = [list(lines) for lines in _INPUTS[kind]]
    files[-1][6] = _BAD  # the target file of a pair
    counts = Counter()
    with pytest.raises(EncodingError, match="line 7"):
        list(_readers(kind, files, side, counts)[-1])
    expected = _derived_counts(kind, files, side)
    assert expected["lines"] == 6
    assert {key: counts[key] for key in expected} == expected


def test_read_articles_blank_line_blocks():
    lines = [b"s1\n", b"s2\n", b"\n", b"t1\n", b"t2\n", b"t3\n", b"\n", b"\n", b"u1\n"]
    arts = list(read_articles(lines))
    assert arts == [["s1", "s2"], ["t1", "t2", "t3"], ["u1"]]


def test_read_articles_refuses_a_lone_carriage_return():
    # a CR-LF terminator is stripped; a CR inside the line is not one
    assert list(read_articles([b"s1\r\n", b"s2\n"])) == [["s1", "s2"]]
    with pytest.raises(ValueError, match=r"^news:2: record text contains a line terminator: 's2\\rs3'$"):
        list(read_articles([b"s1\n", b"s2\rs3\n"], "news"))
