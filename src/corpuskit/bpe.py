"""Cased byte-pair-encoding subword tokenizer, learned and applied from scratch.

Conventions, fixed for determinism and recorded in the model header:

  * Words are whitespace tokens. Each word starts as its characters, with a
    "</w>" marker suffixed to the final character ("low" -> l, o, w</w>),
    so word-final subwords carry the marker and decoding is exact.
  * Training repeatedly merges the most frequent adjacent symbol pair; ties
    break on the lexicographically smallest pair. Learning stops when the
    vocabulary reaches the configured size exactly.
  * Ids: special tokens first, then plain characters by descending corpus
    frequency (ties by codepoint), then their word-final variants in the
    same order, then merge outputs in rank order.
  * Encoding applies the lowest-ranked applicable merge first, leftmost
    occurrence first. Case is never altered; characters missing from the
    vocabulary map to the unknown token (the first special).
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

WORD_END = "</w>"

# Most distinct words one model's encode cache holds before it is emptied.
WORD_CACHE_LIMIT = 1 << 14

DEFAULT_SPECIALS = ("<unk>", "<pad>", "<s>", "</s>", "<mask>")


@dataclass(frozen=True)
class TokenizerConfig:
    vocab_size: int = 32_000
    character_coverage: float = 1.0
    special_tokens: tuple[str, ...] = DEFAULT_SPECIALS

    def validate(self) -> list[str]:
        problems = []
        if self.vocab_size < 1:
            problems.append(f"vocab_size must be positive, got {self.vocab_size}")
        if not 0.0 < self.character_coverage <= 1.0:
            problems.append(f"character_coverage must be in (0, 1], got {self.character_coverage}")
        if not self.special_tokens:
            problems.append("at least one special token (the unknown) is required")
        seen = set()
        for tok in self.special_tokens:
            if not tok or any(c.isspace() for c in tok):
                problems.append(f"special token {tok!r} is empty or contains whitespace")
            if tok in seen:
                problems.append(f"duplicate special token {tok!r}")
            seen.add(tok)
        return problems


@dataclass
class BpeModel:
    merges: list[tuple[str, str]]
    vocab: dict[str, int]  # subword -> id, specials included
    special_tokens: list[str]
    character_coverage: float = 1.0  # the trained share of character occurrences

    def __post_init__(self) -> None:
        # Derived lookups, built once per instance and never persisted. The
        # segmenter works on symbols interned as ints by their string, so a
        # merge output that spells an existing symbol gets that symbol's id.
        specials = set(self.special_tokens)
        self._first_symbols = _first_symbols(self.vocab, self.special_tokens)
        self._alphabet = {s for s in self._first_symbols if len(s) == 1} - specials
        self._id_to_subword = {i: s for s, i in self.vocab.items()}
        self._surface = {  # id -> decoded text; specials and word ends carry the space
            i: s + " " if s in specials else s[: -len(WORD_END)] + " " if s.endswith(WORD_END) else s
            for i, s in self._id_to_subword.items()
        }
        symbols = dict(self._first_symbols)

        def intern(symbol: str) -> int:
            return symbols.setdefault(symbol, len(symbols))

        self._pair_ranks: dict[tuple[int, int], int] = {}
        for rank, (a, b) in enumerate(self.merges):
            self._pair_ranks.setdefault((intern(a), intern(b)), rank)  # first rank wins
        self._merge_outputs = [intern(a + b) for a, b in self.merges]
        unk_id = self.unk_id
        self._symbol_ids = [self.vocab.get(s, unk_id) for s in symbols]
        self._special_ids = {tok: (self.vocab[tok],) for tok in self.special_tokens}
        self._word_cache: dict[str, tuple[int, ...]] = {}

    @property
    def unk_token(self) -> str:
        return self.special_tokens[0]

    @property
    def unk_id(self) -> int:
        return self.vocab[self.unk_token]

    def id_to_subword(self, idx: int) -> str:
        return self._id_to_subword[idx]

    def alphabet(self) -> set[str]:
        """Single characters with a plain-form id (the trained alphabet)."""
        return self._alphabet


def _count(texts: Iterable[str]) -> tuple[Counter, dict[str, int]]:
    """Whitespace-token counts, and the characters of the tokens weighted by
    their counts. ``str.split()`` splits on exactly the characters for which
    ``str.isspace()`` holds, so these are the texts' non-whitespace
    characters, words that are special tokens included."""
    words: Counter = Counter()
    for line in texts:
        words.update(line.split())
    chars: dict[str, int] = {}
    get = chars.get
    for word, n in words.items():
        for ch in word:
            chars[ch] = get(ch, 0) + n
    return words, chars


def _first_symbols(vocab: Iterable[str], specials: Sequence[str]) -> dict[str, int]:
    """The first symbol table, interned by string: the unknown token (the
    first special) is symbol 0, then each single character in the vocabulary,
    then each one's word-final form. A single-character special token is left
    out, so inside a word it is the unknown symbol."""
    chars = [s for s in vocab if len(s) == 1 and s not in specials]
    symbols = {specials[0]: 0}
    for symbol in (*chars, *(ch + WORD_END for ch in chars)):
        symbols.setdefault(symbol, len(symbols))
    return symbols


def _first_ids(word: str, first: dict[str, int]) -> list[int]:
    """A word's first symbols: its characters, the last in word-final form.
    A character not in the table is the unknown symbol, unmarked at the end."""
    ids = list(map(first.get, word, repeat(0)))
    ids[-1] = first.get(word[-1] + WORD_END, 0)
    return ids


def _coverage_alphabet(chars: dict[str, int], coverage: float) -> list[str]:
    """Characters by descending corpus frequency (ties by codepoint), cut to
    the smallest prefix covering the requested share of character occurrences."""
    if not chars:
        raise ValueError("cannot build an alphabet from an empty corpus")
    ranked = sorted(chars.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(chars.values())
    # Exact arithmetic: the smallest frequency-ranked prefix whose cumulative
    # count reaches coverage * total. coverage=1.0 keeps everything.
    needed = Fraction(coverage) * total
    kept: list[str] = []
    cum = 0
    for ch, n in ranked:
        if cum >= needed:
            break
        kept.append(ch)
        cum += n
    return kept


class _PairIndex:
    """Weighted adjacent-pair counts over all words, with a lazy max-heap.

    Words are lists of symbol ids, merged in place. ``ids`` is the symbol
    table, grown by interning each merge output by string, so an output equal
    to an existing symbol gets that symbol's id; ``symbols`` maps an id back
    to its string. ``counts[p]`` is the frequency-weighted number of
    occurrences of the id pair p and holds only pairs that occur. ``where[p]``
    lists the indices of the words that contain p, with exactly the keys of
    ``counts``. It is a superset: a merge appends a word to the pairs it
    creates and never removes one, and a pair whose count reaches 0 leaves
    both. A word is appended unless it is already the list's last entry,
    which drops repeats within one word; a word may still be listed twice,
    and its second visit finds no occurrence, because a merge output is
    longer than either operand and so never re-creates the pair it consumes.
    Heap entries are (-count, left, right) with string symbols, so the
    smallest entry is the most frequent pair with ties to the
    lexicographically smallest string pair. An entry is stale when its count
    no longer matches ``counts``; stale entries are dropped when they reach
    the top. Each merge changes only the pairs next to its merge sites, sums
    those changes over all touched words first and pushes one entry per pair
    whose count moved.
    """

    def __init__(self, words: list[list[int]], freqs: list[int], ids: dict[str, int]):
        self.words, self.freqs, self.ids = words, freqs, ids
        self.symbols = symbols = list(ids)
        counts: dict[tuple[int, int], int] = {}
        where: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
        get = counts.get
        for idx, (w, n) in enumerate(zip(words, freqs)):
            for pair in zip(w, w[1:]):
                counts[pair] = get(pair, 0) + n
                listed = where[pair]
                if not listed or listed[-1] != idx:
                    listed.append(idx)
        self.counts, self.where = counts, where
        self.heap = [(-count, symbols[a], symbols[b]) for (a, b), count in counts.items()]
        heapq.heapify(self.heap)

    def _intern(self, symbol: str) -> int:
        idx = self.ids.get(symbol)
        if idx is None:
            idx = self.ids[symbol] = len(self.symbols)
            self.symbols.append(symbol)
        return idx

    def best_pair(self) -> tuple[str, str] | None:
        heap, counts, ids = self.heap, self.counts, self.ids
        while heap:
            neg, left, right = heap[0]
            if counts.get((ids[left], ids[right]), 0) == -neg:
                return left, right
            heapq.heappop(heap)  # stale entry
        return None

    def apply_merge(self, pair: tuple[str, str]) -> None:
        words, freqs, where, counts, sym = self.words, self.freqs, self.where, self.counts, self.symbols
        a, b = self.ids[pair[0]], self.ids[pair[1]]
        new = self._intern(pair[0] + pair[1])
        delta: dict[tuple[int, int], int] = defaultdict(int)
        removed = 0
        for idx in where.pop((a, b)):
            w, n = words[idx], freqs[idx]
            try:  # non-overlapping occurrences, leftmost first, until index() finds no more
                i = w.index(a)
                while True:
                    if i + 1 < len(w) and w[i + 1] == b:
                        removed += n
                        if i:
                            prev = w[i - 1]
                            delta[prev, a] -= n
                            delta[prev, new] += n
                            listed = where[prev, new]
                            if not listed or listed[-1] != idx:
                                listed.append(idx)
                        if i + 2 < len(w):
                            nxt = w[i + 2]
                            delta[b, nxt] -= n
                            delta[new, nxt] += n
                            listed = where[new, nxt]
                            if not listed or listed[-1] != idx:
                                listed.append(idx)
                        w[i:i + 2] = [new]
                    i = w.index(a, i + 1)
            except ValueError:
                pass
        delta[a, b] -= removed
        for p, d in delta.items():
            # A pair made and consumed in this merge nets to 0 but was added to where.
            count = counts.get(p, 0) + d
            if not count:
                counts.pop(p, None)
                where.pop(p, None)
            elif d:
                counts[p] = count
                heapq.heappush(self.heap, (-count, sym[p[0]], sym[p[1]]))


def learn_bpe(texts: Iterable[str], cfg: TokenizerConfig) -> BpeModel:
    """Learn merges until the vocabulary holds exactly cfg.vocab_size entries.

    Deterministic for a fixed corpus and config. Raises if the corpus cannot
    support the requested size (alphabet too large, or merges exhausted).
    """
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))

    word_counts, chars = _count(texts)
    specials = list(cfg.special_tokens)
    special_set = set(specials)
    # A single-character special gets no word-final form: in a word it is the unknown symbol.
    alphabet = [ch for ch in _coverage_alphabet(chars, cfg.character_coverage) if ch not in special_set]

    vocab: dict[str, int] = {}
    for symbol in (*specials, *alphabet, *(ch + WORD_END for ch in alphabet)):
        vocab.setdefault(symbol, len(vocab))

    if cfg.vocab_size < len(vocab):
        raise ValueError(
            f"vocab_size {cfg.vocab_size} cannot hold {len(specials)} specials plus "
            f"{len(alphabet)} characters and their word-final variants ({len(vocab)} entries)"
        )

    first = _first_symbols(vocab, specials)
    words: list[list[int]] = []
    freqs: list[int] = []
    for word, n in word_counts.items():
        if word not in special_set:  # a literal special token stays atomic in training too
            words.append(_first_ids(word, first))
            freqs.append(n)
    del word_counts  # the id words replace the counter and its strings for all merges

    index = _PairIndex(words, freqs, first)
    merges: list[tuple[str, str]] = []
    while len(vocab) < cfg.vocab_size:
        pair = index.best_pair()
        if pair is None:
            raise ValueError(
                f"merges exhausted at vocabulary size {len(vocab)}; "
                f"corpus is too small for vocab_size {cfg.vocab_size}"
            )
        index.apply_merge(pair)
        merges.append(pair)
        vocab.setdefault(pair[0] + pair[1], len(vocab))

    return BpeModel(merges, vocab, specials, cfg.character_coverage)


def _segment_word(word: str, model: BpeModel) -> tuple[int, ...]:
    """Vocabulary ids of one word: the lowest-ranked applicable merge first,
    leftmost occurrence first, on interned symbols. ``ranks[i]`` is the rank
    of the pair at i (``len(merges)`` when no merge applies); a merge splices
    its output in and recomputes only the two neighbouring ranks."""
    symbols = _first_ids(word, model._first_symbols)
    pair_rank, outputs = model._pair_ranks.get, model._merge_outputs
    none = len(outputs)
    ranks = list(map(pair_rank, zip(symbols, symbols[1:]), repeat(none)))
    while ranks:
        r = min(ranks)
        if r == none:
            break
        i = ranks.index(r)
        new = outputs[r]
        symbols[i:i + 2] = [new]
        del ranks[i]
        if i:
            ranks[i - 1] = pair_rank((symbols[i - 1], new), none)
        if i < len(ranks):
            ranks[i] = pair_rank((new, symbols[i + 1]), none)
    return tuple(map(model._symbol_ids.__getitem__, symbols))


def encode(model: BpeModel, text: str) -> list[int]:
    """Whitespace-pretokenize and segment each word with the learned merges.

    Special-token surfaces are atomic: one word, one id. Unknown characters
    map to the unknown id. Casing is untouched. Segmented words are cached
    per model; the cache is emptied when it holds WORD_CACHE_LIMIT words, so
    memory stays bounded on a stream and the ids do not change.
    """
    ids: list[int] = []
    cache = model._word_cache
    for word in text.split():
        cached = cache.get(word)
        if cached is None:
            if len(cache) >= WORD_CACHE_LIMIT:
                cache.clear()
            cached = cache[word] = model._special_ids.get(word) or _segment_word(word, model)
        ids.extend(cached)
    return ids


def decode(model: BpeModel, ids: Iterable[int]) -> str:
    """Inverse of encode on fully covered text: markers become spaces.

    Unknown ids in the input reproduce the unknown token surface, not the
    original characters. An id outside the vocabulary is an error.
    """
    surface = model._surface
    try:
        out = "".join([surface[idx] for idx in ids])
    except KeyError as e:
        raise ValueError(f"id {e.args[0]} is not in the vocabulary") from None
    return out[:-1] if out.endswith(" ") else out


def add_special_tokens(model: BpeModel, tokens: Sequence[str]) -> BpeModel:
    """Append new atomic tokens with fresh ids above the current maximum.

    Existing ids never move, so models extended after training stay
    compatible with anything built on the original ids.
    """
    vocab = dict(model.vocab)
    specials = list(model.special_tokens)
    next_id = max(vocab.values()) + 1 if vocab else 0
    for tok in tokens:
        if not tok or any(c.isspace() for c in tok):
            raise ValueError(f"special token {tok!r} is empty or contains whitespace")
        if tok in vocab:
            raise ValueError(f"token {tok!r} is already in the vocabulary")
        vocab[tok] = next_id
        specials.append(tok)
        next_id += 1
    return replace(model, merges=list(model.merges), vocab=vocab, special_tokens=specials)


# ---------------------------------------------------------------------------
# Model files: a merges file with a header line recording the conventions and
# the vocabulary's size, one "left right" pair per line (rank = line order),
# and a vocab file with one "subword<TAB>id" per line. Load/save round-trips
# are byte-stable.

_HEADER_PREFIX = "#corpuskit-bpe v1"
_HEADER_FIELDS = ("marker", "vocab_size", "coverage", "specials")


def save_model(model: BpeModel, merges_path: Path | str, vocab_path: Path | str) -> None:
    header = (
        f"{_HEADER_PREFIX}\tmarker={WORD_END}"
        f"\tvocab_size={len(model.vocab)}\tcoverage={model.character_coverage!r}"
        f"\tcased=true\tspecials={' '.join(model.special_tokens)}"
    )
    with open(merges_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for a, b in model.merges:
            f.write(f"{a} {b}\n")
    with open(vocab_path, "w", encoding="utf-8", newline="\n") as f:
        for sub, idx in sorted(model.vocab.items(), key=lambda kv: kv[1]):
            f.write(f"{sub}\t{idx}\n")


def _two_fields(path: Path | str, line_no: int, line: str, sep: str) -> tuple[str, str]:
    text = line.rstrip("\n")
    left, found, right = text.partition(sep)
    if not (found and left and right) or sep in right:
        raise ValueError(f"{path}:{line_no}: expected two fields separated by {sep!r}, got {text!r}")
    return left, right


def load_model(merges_path: Path | str, vocab_path: Path | str) -> BpeModel:
    """Read a model written by save_model. A missing header field, a line
    that is not two fields, an id that is not an integer, an id or subword
    listed twice, and a merge whose output is not in the vocabulary raise
    ValueError naming the file and line. The header's vocab_size must be an
    integer; the vocabulary file, not the header, gives the model's size."""
    with open(merges_path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError(f"{merges_path}: not a corpuskit BPE merges file")
        fields = dict(part.partition("=")[::2] for part in header.split("\t")[1:])
        missing = [key for key in _HEADER_FIELDS if not fields.get(key)]
        if missing:
            raise ValueError(f"{merges_path}:1: header has no value for {' '.join(missing)}")
        if fields["marker"] != WORD_END:
            raise ValueError(f"{merges_path}:1: end-of-word marker {fields['marker']!r} is not {WORD_END!r}")
        try:
            int(fields["vocab_size"])
            coverage = float(fields["coverage"])
        except ValueError as e:
            raise ValueError(f"{merges_path}:1: {e}") from None
        merges = [_two_fields(merges_path, line_no, line, " ") for line_no, line in enumerate(f, 2)]
    vocab: dict[str, int] = {}
    ids: set[int] = set()
    with open(vocab_path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            sub, idx = _two_fields(vocab_path, line_no, line, "\t")
            try:
                i = int(idx)
            except ValueError:
                raise ValueError(f"{vocab_path}:{line_no}: id {idx!r} is not an integer") from None
            if sub in vocab:
                raise ValueError(f"{vocab_path}:{line_no}: subword {sub!r} is listed twice")
            if i in ids:
                raise ValueError(f"{vocab_path}:{line_no}: id {i} is listed twice")
            vocab[sub] = i
            ids.add(i)
    specials = fields["specials"].split(" ")
    missing = [tok for tok in specials if tok not in vocab]
    if missing:
        raise ValueError(f"{vocab_path}: special tokens missing from the vocabulary: {' '.join(missing)}")
    model = BpeModel(merges, vocab, specials, coverage)
    # A merge output spelling the unknown token is that token; any other one
    # that maps to the unknown id is missing from the vocabulary.
    unk_id = model.unk_id
    for line_no, (out, (a, b)) in enumerate(zip(model._merge_outputs, merges), 2):
        if out and model._symbol_ids[out] == unk_id:
            raise ValueError(f"{merges_path}:{line_no}: merge output {a + b!r} is missing from {vocab_path}")
    return model
