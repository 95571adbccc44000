import hashlib
import random
from collections import Counter

import pytest

from corpuskit.bpe import (
    DEFAULT_SPECIALS,
    WORD_CACHE_LIMIT,
    BpeModel,
    TokenizerConfig,
    _PairIndex,
    add_special_tokens,
    decode,
    encode,
    learn_bpe,
    load_model,
    save_model,
)

import oracles

# word frequencies: low:5 lower:2 newest:6 widest:3
TOY_COUNTS = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
TOY_LINES = [w for w, n in TOY_COUNTS.items() for _ in range(n)]
TOY_ALPHABET_SIZE = len(set("".join(TOY_COUNTS)))  # 10 distinct characters


def toy_config(n_merges: int) -> TokenizerConfig:
    base = len(DEFAULT_SPECIALS) + 2 * TOY_ALPHABET_SIZE
    return TokenizerConfig(vocab_size=base + n_merges)


def toy_model(n_merges: int = 10) -> BpeModel:
    return learn_bpe(TOY_LINES, toy_config(n_merges))


# --- alphabet ----------------------------------------------------------------
# learn_bpe at the smallest vocabulary for n characters learns no merge, so
# its vocabulary is the specials, then the alphabet in id order, then each
# character's word-final form in the same order.

def _alphabet_vocab(lines, n_chars, coverage=1.0) -> list[str]:
    cfg = TokenizerConfig(vocab_size=len(DEFAULT_SPECIALS) + 2 * n_chars, character_coverage=coverage)
    model = learn_bpe(lines, cfg)
    assert model.merges == []
    return sorted(model.vocab, key=model.vocab.__getitem__)[len(DEFAULT_SPECIALS):]


def test_alphabet_full_coverage():
    assert _alphabet_vocab(["aab"], 2) == ["a", "b", "a</w>", "b</w>"]


def test_alphabet_orders_by_frequency_then_codepoint():
    # b:3 a:3 c:1 -> ties a<b by codepoint
    assert _alphabet_vocab(["ab ab ab c"], 3) == ["a", "b", "c", "a</w>", "b</w>", "c</w>"]
    # c:4 b:2 a:1 -> frequency before codepoint
    assert _alphabet_vocab(["cccc bb a"], 3) == ["c", "b", "a", "c</w>", "b</w>", "a</w>"]


def test_alphabet_coverage_cut():
    # counts a:90 b:9 c:1; 0.99 is reached before c
    corpus = ["a" * 90 + " " + "b" * 9 + " c"]
    assert _alphabet_vocab(corpus, 2, 0.99) == ["a", "b", "a</w>", "b</w>"]
    assert _alphabet_vocab(corpus, 3, 1.0) == ["a", "b", "c", "a</w>", "b</w>", "c</w>"]
    with pytest.raises(ValueError, match="vocab_size"):  # c is in the alphabet at full coverage
        _alphabet_vocab(corpus, 2, 1.0)


def test_alphabet_keeps_rare_chars_at_full_coverage():
    assert "ñ" in _alphabet_vocab(["maganda ñ"], 6)


def test_alphabet_empty_corpus_errors():
    # lines of whitespace only hold no character, like no lines at all
    with pytest.raises(ValueError, match="empty"):
        learn_bpe(["", " \t ", "\u3000"], TokenizerConfig(vocab_size=100))


# --- learning ----------------------------------------------------------------

def test_first_toy_merge_is_e_s():
    # brute-force pair count: (e,s) appears 6+3 = 9 times, the maximum
    # (tied with (s,t</w>), and (e,s) is lexicographically smaller)
    model = toy_model(1)
    assert model.merges[0] == ("e", "s")


def test_toy_merges_match_quadratic_reference():
    model = toy_model(10)
    reference = oracles.quadratic_bpe_merges(TOY_COUNTS, 10)
    assert model.merges == reference


def test_toy_merge_sequence_frozen():
    # derived by hand from the pair counts, and double-checked by the oracle
    assert toy_model(10).merges == [
        ("e", "s"), ("es", "t</w>"), ("l", "o"), ("e", "w"), ("ew", "est</w>"),
        ("n", "ewest</w>"), ("lo", "w</w>"), ("d", "est</w>"), ("i", "dest</w>"),
        ("w", "idest</w>"),
    ]


def test_reference_agreement_on_random_corpora():
    rng = random.Random(31)
    for trial in range(5):
        words = Counter()
        for _ in range(60):
            w = "".join(rng.choice("abcdef") for _ in range(rng.randrange(1, 7)))
            words[w] += rng.randrange(1, 9)
        lines = [w for w, n in words.items() for _ in range(n)]
        base = len(DEFAULT_SPECIALS) + 2 * len(set("".join(words)))
        cfg = TokenizerConfig(vocab_size=base + 12)
        model = learn_bpe(lines, cfg)
        assert model.merges == oracles.quadratic_bpe_merges(words, len(model.merges)), trial


def _run_words(rng: random.Random) -> Counter:
    """Words built from repeated-symbol runs and short periods ("aaaa", "abab",
    "aabaab"), where one merge can remove and re-create the same pair inside
    one word, so a pair's net change over a merge is often zero."""
    words = Counter()
    for _ in range(40):
        unit = "".join(rng.choice("aab") for _ in range(rng.randrange(1, 4)))
        w = unit * rng.randrange(1, 6) + rng.choice(["", "", "a", "b", "c"])
        words[w] += rng.randrange(1, 9)
    return words


def _recount(words, freqs):
    counts, where = Counter(), {}
    for idx, (syms, n) in enumerate(zip(words, freqs)):
        for a, b in zip(syms, syms[1:]):
            counts[a << 32 | b] += n
            where.setdefault(a << 32 | b, set()).add(idx)
    return counts, where


def _pair_index(words: Counter) -> _PairIndex:
    ids: dict[str, int] = {}
    int_words = [[ids.setdefault(s, len(ids)) for s in oracles.word_to_symbols(w)] for w in words]
    return _PairIndex(int_words, list(words.values()), ids)


def _merge_to_exhaustion_against_recount(index: _PairIndex, label, relist: bool = False) -> None:
    def strings(p):  # a pair key a << 32 | b as the string pair that heap entries hold
        return index.symbols[p >> 32], index.symbols[p & 0xFFFFFFFF]

    for step in range(200):
        before = dict(index.counts)
        pair = index.best_pair()
        if pair is None:
            break
        # the top entry is exact
        assert index.heap[0] == (-before[index.ids[pair[0]] << 32 | index.ids[pair[1]]], *pair), (label, step)
        if relist:  # every word twice in every list: the merged pair's and those the merge appends to
            for listed in index.where.values():
                listed[:] = [*dict.fromkeys(listed)] * 2
        heap = Counter(index.heap)
        index.apply_merge(pair)
        counts, where = _recount(index.words, index.freqs)
        # dict(): Counter equality ignores zero entries, the index must hold none
        assert dict(index.counts) == dict(counts), (label, step)
        # where[p] may keep a word that lost p, but holds every word with p
        assert index.where.keys() == where.keys(), (label, step)
        assert all(set(index.where[p]) >= members for p, members in where.items()), (label, step)
        # the merge pushed one entry at the new count for each pair whose count rose, and nothing else
        rose = Counter((-c, *strings(p)) for p, c in counts.items() if c > before.get(p, 0))
        assert Counter(index.heap) - heap == rose and not heap - Counter(index.heap), (label, step)
        # every live pair has an entry whose count is at least its live count
        filed: dict[tuple[str, str], int] = {}
        for neg, left, right in index.heap:
            filed[left, right] = max(filed.get((left, right), 0), -neg)
        assert all(filed.get(strings(p), 0) >= c for p, c in counts.items()), (label, step)
    assert not index.counts and not index.where, label


def test_pair_index_matches_recount_after_every_merge():
    rng = random.Random(5)
    for trial in range(12):
        words = _run_words(rng) if trial % 2 else Counter(
            "".join(rng.choice("abc") for _ in range(rng.randrange(1, 9))) for _ in range(50))
        _merge_to_exhaustion_against_recount(_pair_index(words), trial)
    # Merging (ab, ab) in ab ab ab ab a</w> makes (abab, ab) at the first site
    # and consumes it at the second: its count nets to 0 and it must leave
    # where. (In abababab alone the last symbol is b</w>, so only three ab form.)
    _merge_to_exhaustion_against_recount(_pair_index(Counter({"ababababa": 3})), "ababababa")


def test_pair_index_matches_recount_with_words_listed_twice():
    rng = random.Random(9)
    for trial in range(8):
        words = _run_words(rng) if trial % 2 else Counter(
            "".join(rng.choice("abc") for _ in range(rng.randrange(1, 9))) for _ in range(50))
        _merge_to_exhaustion_against_recount(_pair_index(words), trial, relist=True)
    # A merge lists a word twice by itself when its output is an existing
    # symbol: (a, b) outputs ab, so in "x ab x a b" it makes (x, ab) again,
    # whose list already holds the word, but not as its last entry.
    index = _PairIndex([[3, 2, 3, 0, 1], [3, 2]], [1, 1], {"a": 0, "b": 1, "ab": 2, "x": 3})
    index.apply_merge(("a", "b"))
    assert index.where[3 << 32 | 2] == [0, 1, 0]
    assert index.counts[3 << 32 | 2] == 3
    _merge_to_exhaustion_against_recount(index, "x ab x a b")


def test_reference_agreement_on_repeated_symbol_runs():
    rng = random.Random(17)
    for trial in range(6):
        words = _run_words(rng)
        lines = [w for w, n in words.items() for _ in range(n)]
        base = len(DEFAULT_SPECIALS) + 2 * len(set("".join(words)))
        model = learn_bpe(lines, TokenizerConfig(vocab_size=base + 40))
        assert len(model.merges) >= 40
        assert model.merges == oracles.quadratic_bpe_merges(words, len(model.merges)), trial


# The end-of-word marker is in-band: words made of "<", "/", "w", ">" can
# spell it, and the merge ("q", "</w>") outputs the existing symbol q</w>,
# so it adds no vocabulary entry. Captured from the string-symbol trainer;
# interning symbols by their string must keep it.
MARKER_LINES = ["q</w>a q</w>b q</w>c q</w>d q</w>e"] * 3
MARKER_MERGES = [
    ("/", "w"), ("/w", ">"), ("<", "/w>"), ("q", "</w>"), ("q</w>", "a</w>"), ("q</w>", "b</w>"),
    ("q</w>", "c</w>"),
]
MARKER_VOCAB = [
    *DEFAULT_SPECIALS, "/", "<", ">", "q", "w", "a", "b", "c", "d", "e",
    "/</w>", "<</w>", "></w>", "q</w>", "w</w>", "a</w>", "b</w>", "c</w>", "d</w>", "e</w>",
    "/w", "/w>", "</w>", "q</w>a</w>", "q</w>b</w>", "q</w>c</w>",
]


@pytest.mark.parametrize("vocab_size, n_merges", [(26, 1), (27, 2), (28, 3), (29, 5), (30, 6), (31, 7)])
def test_in_band_marker_merges_are_frozen(vocab_size, n_merges):
    model = learn_bpe(MARKER_LINES, TokenizerConfig(vocab_size=vocab_size))
    assert model.merges == MARKER_MERGES[:n_merges]
    assert model.vocab == {sub: i for i, sub in enumerate(MARKER_VOCAB[:vocab_size])}


def _seeded_corpus() -> list[str]:
    """Zipf-weighted words of Tagalog-like syllables. At vocab_size 400 it
    takes 361 merges, and 233 of them break a tie on the count."""
    rng = random.Random(2021)
    syllables = ["ka", "ng", "sa", "pa", "ma", "an", "in", "ba", "la", "ta", "ay", "ni", "o", "e", "ó", "ñ", "u"]
    lexicon = ["".join(rng.choice(syllables) for _ in range(rng.randrange(1, 5))) for _ in range(600)]
    weights = [1 / (rank + 1) for rank in range(len(lexicon))]
    return [" ".join(rng.choices(lexicon, weights, k=12)) for _ in range(1500)]


def test_seeded_model_files_are_frozen(tmp_path):
    # SHA-256 of the files the string-symbol trainer wrote for this corpus
    model = learn_bpe(_seeded_corpus(), TokenizerConfig(vocab_size=400))
    assert len(model.merges) >= 300
    save_model(model, tmp_path / "bpe.merges.txt", tmp_path / "bpe.vocab.txt")
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("bpe.merges.txt", "bpe.vocab.txt")}
    assert digest == {
        "bpe.merges.txt": "202e2810f3a671cbccd27f442383c185c17d66715ff405c1bd80af5c20e7e430",
        "bpe.vocab.txt": "195960f21874c8d53c503120cf4ec491ba0bbedf19f01f91a4ff2a6f7f5746da",
    }


def test_vocab_size_is_exact():
    for extra in (0, 1, 7, 10):
        model = toy_model(extra)
        assert len(model.vocab) == toy_config(extra).vocab_size


def test_zero_merge_boundary():
    model = toy_model(0)
    assert model.merges == []
    assert len(model.vocab) == len(DEFAULT_SPECIALS) + 2 * TOY_ALPHABET_SIZE


def test_vocab_too_small_errors():
    with pytest.raises(ValueError, match="vocab_size"):
        learn_bpe(TOY_LINES, TokenizerConfig(vocab_size=10))


def test_vocab_too_large_for_corpus_errors():
    with pytest.raises(ValueError, match="exhausted"):
        learn_bpe(["ab"], TokenizerConfig(vocab_size=5000))


def test_word_spelling_a_word_final_symbol_is_trained():
    # "a</w>" equals the vocabulary entry a</w> but is no special token, so
    # its five symbols give pairs; only literal specials stay atomic.
    counts = {"aa": 2, "a</w>": 2}
    model = learn_bpe(["aa a</w> aa a</w>"], TokenizerConfig(vocab_size=18))
    assert model.merges == oracles.quadratic_bpe_merges(counts, 3)
    assert decode(model, encode(model, "a</w>")) == "a</w>"


def test_single_character_special_is_unknown_inside_a_word_in_training():
    # As encode sees it, "xa" is <unk> a</w> when "x" is a special token, so
    # training learns merges of <unk>, never one with "x" that encode cannot apply.
    model = learn_bpe(["xa xa xa xb ab"], TokenizerConfig(vocab_size=8, special_tokens=("<unk>", "x")))
    assert model.merges == [("<unk>", "a</w>"), ("<unk>", "b</w>")]
    assert "x</w>" not in model.vocab
    assert encode(model, "xa xb x") == [model.vocab["<unk>a</w>"], model.vocab["<unk>b</w>"], model.vocab["x"]]


def test_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty"):
        learn_bpe([], TokenizerConfig(vocab_size=100))


def test_special_ids_come_first():
    model = toy_model(3)
    for i, tok in enumerate(DEFAULT_SPECIALS):
        assert model.vocab[tok] == i


def test_training_is_deterministic():
    a = toy_model(10)
    b = toy_model(10)
    assert a.merges == b.merges and a.vocab == b.vocab


# --- encode / decode -----------------------------------------------------------

def test_encode_empty():
    assert encode(toy_model(), "") == []


def test_decode_empty():
    assert decode(toy_model(), []) == ""


def test_toy_segmentation_matches_rank_ordered_reference():
    model = toy_model(10)
    for word in ["lowest", "low", "newest", "widest", "lower", "wes"]:
        got = [model.id_to_subword(i) for i in encode(model, word)]
        assert got == oracles.rank_ordered_segment(word, model.merges), word


def test_lowest_uses_learned_merges():
    model = toy_model(10)
    pieces = [model.id_to_subword(i) for i in encode(model, "lowest")]
    assert pieces == ["lo", "w", "est</w>"]


def test_roundtrip_on_covered_text():
    model = toy_model(10)
    for text in ["low", "newest widest", "we sow stole", "low low lower"]:
        assert decode(model, encode(model, text)) == text


def test_roundtrip_preserves_case():
    lines = ["Kamusta kamusta PO po Na na"] * 3
    base = len(DEFAULT_SPECIALS) + 2 * len(set("".join(lines[0].split())))
    model = learn_bpe(lines, TokenizerConfig(vocab_size=base + 8))
    text = "Kamusta PO po kamusta"
    assert decode(model, encode(model, text)) == text
    assert encode(model, "Kamusta") != encode(model, "kamusta")


def test_unknown_chars_map_to_unk():
    model = toy_model(10)
    ids = encode(model, "loZw")
    assert model.unk_id in ids
    assert model.unk_token in decode(model, ids)


def test_pair_listed_twice_keeps_its_first_rank():
    vocab = {s: i for i, s in enumerate(["<unk>", "a", "b", "c", "c</w>", "bc</w>", "ab"])}
    model = BpeModel(merges=[("b", "c</w>"), ("a", "b"), ("b", "c</w>")], vocab=vocab, special_tokens=["<unk>"])
    assert [model.id_to_subword(i) for i in encode(model, "abc")] == ["a", "bc</w>"]


def test_word_cache_is_bounded_and_keeps_ids():
    model = toy_model(10)
    words = ["".join("lowernstid"[int(d)] for d in str(i)) for i in range(WORD_CACHE_LIMIT + 1000)]
    got, clears = [], 0
    for word in words:
        before = len(model._word_cache)
        got.append(encode(model, word))
        assert len(model._word_cache) <= WORD_CACHE_LIMIT
        if len(model._word_cache) < before:  # emptied: a special still encodes as one id
            clears += 1
            assert encode(model, "<mask>") == [model.vocab["<mask>"]]
    assert clears == 1
    # Fresh models, each given fewer distinct words than the limit, never empty their cache.
    for start in range(0, len(words), 1000):
        fresh = BpeModel(merges=model.merges, vocab=model.vocab, special_tokens=model.special_tokens)
        assert [encode(fresh, w) for w in words[start:start + 1000]] == got[start:start + 1000]


def test_decode_rejects_out_of_range_id():
    model = toy_model(2)
    with pytest.raises(ValueError, match=str(len(model.vocab) + 5)):
        decode(model, [len(model.vocab) + 5])


def test_merge_monotonicity():
    # more merges never increase the total token count of the corpus
    counts = None
    for k in range(0, 11):
        model = toy_model(k)
        total = sum(len(encode(model, line)) for line in TOY_LINES)
        if counts is not None:
            assert total <= counts, k
        counts = total


# --- special tokens --------------------------------------------------------------

def test_add_special_tokens_appends_at_top():
    model = toy_model(5)
    before = dict(model.vocab)
    grown = add_special_tokens(model, ["[LINK]", "[MENTION]", "[HASHTAG]"])
    assert len(grown.vocab) == len(before) + 3
    for sub, idx in before.items():
        assert grown.vocab[sub] == idx
    assert grown.vocab["[LINK]"] == max(before.values()) + 1


def test_add_special_tokens_empty_is_identity():
    model = toy_model(5)
    grown = add_special_tokens(model, [])
    assert grown.vocab == model.vocab and grown.merges == model.merges


def test_added_token_encodes_atomically():
    grown = add_special_tokens(toy_model(5), ["[LINK]"])
    assert encode(grown, "[LINK]") == [grown.vocab["[LINK]"]]
    assert decode(grown, encode(grown, "[LINK] low")) == "[LINK] low"


def test_add_duplicate_token_errors():
    model = toy_model(5)
    with pytest.raises(ValueError, match="already"):
        add_special_tokens(model, ["<unk>"])
    grown = add_special_tokens(model, ["[LINK]"])
    with pytest.raises(ValueError, match="already"):
        add_special_tokens(grown, ["[LINK]"])


# --- persistence ------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    model = toy_model(10)
    m1, v1 = tmp_path / "m.txt", tmp_path / "v.txt"
    save_model(model, m1, v1)
    loaded = load_model(m1, v1)
    assert loaded.merges == model.merges
    assert loaded.vocab == model.vocab
    assert loaded.special_tokens == model.special_tokens

    m2, v2 = tmp_path / "m2.txt", tmp_path / "v2.txt"
    save_model(loaded, m2, v2)
    assert m2.read_bytes() == m1.read_bytes()
    assert v2.read_bytes() == v1.read_bytes()



def test_saved_header_describes_the_model_after_added_specials(tmp_path):
    grown = add_special_tokens(toy_model(5), ["<cls>", "<sep>"])
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    save_model(grown, merges, vocab)
    header = dict(part.partition("=")[::2] for part in merges.read_text(encoding="utf-8").split("\n")[0].split("\t"))
    assert int(header["vocab_size"]) == len(vocab.read_text(encoding="utf-8").splitlines()) == 32
    assert load_model(merges, vocab).special_tokens == [*DEFAULT_SPECIALS, "<cls>", "<sep>"]


def test_header_vocab_size_is_not_compared_with_the_vocabulary(tmp_path):
    # an older save of a grown model recorded the trained size, not the vocabulary's
    model = add_special_tokens(toy_model(5), ["<cls>"])
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    save_model(model, merges, vocab)
    merges.write_text(merges.read_text(encoding="utf-8").replace("vocab_size=31", "vocab_size=30", 1), encoding="utf-8")
    assert load_model(merges, vocab).vocab == model.vocab
    merges.write_text(merges.read_text(encoding="utf-8").replace("vocab_size=30", "vocab_size=many", 1),
                      encoding="utf-8")
    with pytest.raises(ValueError, match=r"m\.txt:1: invalid literal for int"):
        load_model(merges, vocab)


def test_character_coverage_survives_a_save_and_load(tmp_path):
    corpus = ["a" * 90 + " " + "b" * 9 + " c"]
    model = learn_bpe(corpus, TokenizerConfig(vocab_size=len(DEFAULT_SPECIALS) + 4, character_coverage=0.99))
    save_model(model, tmp_path / "m", tmp_path / "v")
    assert model.character_coverage == load_model(tmp_path / "m", tmp_path / "v").character_coverage == 0.99

def test_load_model_names_specials_missing_from_vocab(tmp_path):
    merges, vocab = tmp_path / "m.txt", tmp_path / "v.txt"
    save_model(toy_model(5), merges, vocab)
    lines = vocab.read_text(encoding="utf-8").splitlines(keepends=True)
    vocab.write_text("".join(l for l in lines if not l.startswith(("<s>\t", "<mask>\t"))), encoding="utf-8")
    with pytest.raises(ValueError, match="missing from the vocabulary: <s> <mask>$"):
        load_model(merges, vocab)


def test_saved_models_are_byte_identical_across_trainings(tmp_path):
    save_model(toy_model(10), tmp_path / "a.m", tmp_path / "a.v")
    save_model(toy_model(10), tmp_path / "b.m", tmp_path / "b.v")
    assert (tmp_path / "a.m").read_bytes() == (tmp_path / "b.m").read_bytes()
    assert (tmp_path / "a.v").read_bytes() == (tmp_path / "b.v").read_bytes()


def test_loaded_model_encodes_identically(tmp_path):
    model = toy_model(10)
    save_model(model, tmp_path / "m", tmp_path / "v")
    loaded = load_model(tmp_path / "m", tmp_path / "v")
    for text in ["lowest newest", "low wide", "sew"]:
        assert encode(loaded, text) == encode(model, text)


def test_config_validation():
    assert TokenizerConfig().validate() == []
    assert TokenizerConfig(vocab_size=0).validate() != []
    assert TokenizerConfig(character_coverage=0.0).validate() != []
    with pytest.raises(TypeError):  # the tokenizer is cased-only; there is no knob
        TokenizerConfig(case_preserving=False)
    assert TokenizerConfig(special_tokens=("<unk>", "<unk>")).validate() != []
    assert TokenizerConfig(special_tokens=("bad token",)).validate() != []
