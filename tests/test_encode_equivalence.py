"""Property: encode gives the pieces of the rank-ordered reference segmenter
(tests/oracles.py) on random models: shuffled merge order, duplicated
pairs, merge outputs dropped from the vocabulary, unknown characters,
specials that spell ordinary words, and character coverage below 1.
Property: decode inverts encode on text the model covers."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from corpuskit.bpe import DEFAULT_SPECIALS, WORD_END, BpeModel, TokenizerConfig, decode, encode, learn_bpe

import oracles

_CHARS = "abéñ</w>"
_WORD = st.text(st.sampled_from(_CHARS), min_size=1, max_size=8)
_UNSEEN = st.text(st.sampled_from(_CHARS + "Zß"), min_size=1, max_size=8)


def _trained(lines, cfg, extra):
    """The model of the largest vocabulary size up to a bound plus extra that trains."""
    bound = len(cfg.special_tokens) + 2 * len(set("".join(lines).replace(" ", "")))
    for size in range(bound + extra, 0, -1):
        try:
            return learn_bpe(lines, TokenizerConfig(size, cfg.character_coverage, cfg.special_tokens))
        except ValueError:  # merges exhausted at this size, or the alphabet does not fit
            continue
    raise AssertionError("no vocabulary size trains")


@settings(max_examples=300, deadline=None)
@given(words=st.lists(_WORD, min_size=2, max_size=15), coverage=st.sampled_from([1.0, 0.9, 0.7]),
       data=st.data())
def test_encode_pieces_equal_the_rank_ordered_reference(words, coverage, data):
    extra = data.draw(st.lists(st.sampled_from(words + list(_CHARS)), max_size=2, unique=True))
    specials = list(dict.fromkeys([*DEFAULT_SPECIALS, *extra]))
    lines = [" ".join(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6))) for _ in range(5)]
    # The specials plus each character and its word-final form bound the
    # merge-free vocabulary from above; coverage below 1 only shrinks it. The
    # walk down stops at the first size that trains, at the latest at that
    # vocabulary, and the trained model supplies the alphabet below.
    bound = len(specials) + 2 * len(set("".join(lines).replace(" ", "")))
    for size in range(bound + data.draw(st.integers(0, 30)), 0, -1):
        try:
            trained = learn_bpe(lines, TokenizerConfig(vocab_size=size, character_coverage=coverage,
                                                       special_tokens=tuple(specials)))
            break
        except ValueError:  # merges exhausted below this size
            continue
    merges = data.draw(st.permutations(trained.merges))
    for _ in range(data.draw(st.integers(1, 3)) if merges else 0):  # a pair listed twice keeps its first rank
        merges.insert(data.draw(st.integers(0, len(merges))), data.draw(st.sampled_from(merges)))
    outputs = sorted({a + b for a, b in merges} - set(specials))
    dropped = data.draw(st.sets(st.sampled_from(outputs))) if outputs else set()
    vocab = {s: i for s, i in trained.vocab.items() if s not in dropped}
    model = BpeModel(merges=merges, vocab=vocab, special_tokens=specials)

    seen = st.sampled_from(words + specials)
    text = " ".join(data.draw(st.lists(st.one_of(seen, st.builds(str.__add__, seen, seen), _UNSEEN), max_size=8)))
    known = {s for s in vocab if len(s) == 1 and s not in specials}
    unk_id = vocab[specials[0]]
    expected = []
    for word in text.split():
        pieces = [word] if word in specials else oracles.rank_ordered_segment(word, merges, known, specials[0])
        expected += [vocab.get(p, unk_id) for p in pieces]
    assert encode(model, text) == expected


@settings(max_examples=200, deadline=None)
@given(words=st.lists(_WORD, min_size=1, max_size=15), coverage=st.sampled_from([1.0, 0.9, 0.7]),
       data=st.data())
def test_decode_inverts_encode_on_covered_text(words, coverage, data):
    lines = [" ".join(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6))) for _ in range(5)]
    model = _trained(lines, TokenizerConfig(character_coverage=coverage), data.draw(st.integers(0, 30)))
    covered = sorted(s for s in model.vocab if len(s) == 1 and s not in model.special_tokens)
    # Learned words with no character dropped by coverage, and new words of
    # covered characters. No word spells the in-band marker </w>: decode
    # cannot tell it from a word end, a known defect.
    learned = [w for w in words if set(w) <= set(covered)]
    word = st.text(st.sampled_from(covered), min_size=1, max_size=8)
    if learned:
        word = st.one_of(st.sampled_from(learned), word)
    text = " ".join(data.draw(st.lists(word.filter(lambda w: WORD_END not in w), max_size=8)))
    assert decode(model, encode(model, text)) == text
