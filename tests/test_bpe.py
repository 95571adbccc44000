import random
from collections import Counter

import pytest

from corpuskit.bpe import (
    DEFAULT_SPECIALS,
    BpeModel,
    TokenizerConfig,
    _PairIndex,
    add_special_tokens,
    build_alphabet,
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

def test_alphabet_full_coverage():
    assert set(build_alphabet(["aab"], 1.0)) == {"a", "b"}


def test_alphabet_orders_by_frequency_then_codepoint():
    # b:3 a:3 c:1 -> ties a<b by codepoint
    assert build_alphabet(["ab ab ab c"], 1.0) == ["a", "b", "c"]


def test_alphabet_coverage_cut():
    # counts a:90 b:9 c:1; 0.99 is reached before c
    corpus = ["a" * 90 + " " + "b" * 9 + " c"]
    assert build_alphabet(corpus, 0.99) == ["a", "b"]
    assert build_alphabet(corpus, 1.0) == ["a", "b", "c"]


def test_alphabet_keeps_rare_chars_at_full_coverage():
    assert "ñ" in build_alphabet(["maganda ñ"], 1.0)


def test_alphabet_empty_corpus_errors():
    with pytest.raises(ValueError):
        build_alphabet([], 1.0)


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
        for p in zip(syms, syms[1:]):
            counts[p] += n
            where.setdefault(p, set()).add(idx)
    return counts, where


def test_pair_index_matches_recount_after_every_merge():
    rng = random.Random(5)
    for trial in range(12):
        words = _run_words(rng) if trial % 2 else Counter(
            "".join(rng.choice("abc") for _ in range(rng.randrange(1, 9))) for _ in range(50))
        index = _PairIndex([oracles.word_to_symbols(w) for w in words], list(words.values()))
        for step in range(200):
            pair = index.best_pair()
            if pair is None:
                break
            index.apply_merge(pair)
            counts, where = _recount(index.words, index.freqs)
            # dict(): Counter equality ignores zero entries, the index must hold none
            assert dict(index.counts) == dict(counts), (trial, step)
            assert index.where == where, (trial, step)
            live = set(index.heap)
            assert all((-c, p) in live for p, c in counts.items()), (trial, step)
        assert not index.counts and not index.where, trial


def test_reference_agreement_on_repeated_symbol_runs():
    rng = random.Random(17)
    for trial in range(6):
        words = _run_words(rng)
        lines = [w for w, n in words.items() for _ in range(n)]
        base = len(DEFAULT_SPECIALS) + 2 * len(set("".join(words)))
        model = learn_bpe(lines, TokenizerConfig(vocab_size=base + 40))
        assert len(model.merges) >= 40
        assert model.merges == oracles.quadratic_bpe_merges(words, len(model.merges)), trial


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
    assert loaded.end_of_word_marker == model.end_of_word_marker

    m2, v2 = tmp_path / "m2.txt", tmp_path / "v2.txt"
    save_model(loaded, m2, v2)
    assert m2.read_bytes() == m1.read_bytes()
    assert v2.read_bytes() == v1.read_bytes()


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
