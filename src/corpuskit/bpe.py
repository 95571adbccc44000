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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

WORD_END = "</w>"

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
    end_of_word_marker: str = WORD_END
    config: TokenizerConfig = field(default_factory=TokenizerConfig)
    # lazy derived lookups; rebuilt per model instance, never persisted
    _id_to_subword: dict[int, str] = field(default_factory=dict, repr=False, compare=False)
    _word_cache: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)
    _ranks: dict[tuple[str, str], int] | None = field(default=None, repr=False, compare=False)
    _alphabet: set[str] | None = field(default=None, repr=False, compare=False)

    @property
    def unk_token(self) -> str:
        return self.special_tokens[0]

    @property
    def unk_id(self) -> int:
        return self.vocab[self.unk_token]

    def id_to_subword(self, idx: int) -> str:
        if not self._id_to_subword:
            self._id_to_subword.update({i: s for s, i in self.vocab.items()})
        return self._id_to_subword[idx]

    def merge_ranks(self) -> dict[tuple[str, str], int]:
        if self._ranks is None:
            ranks: dict[tuple[str, str], int] = {}
            for i, pair in enumerate(self.merges):
                ranks.setdefault(pair, i)
            self._ranks = ranks
        return self._ranks

    def alphabet(self) -> set[str]:
        """Single characters with a plain-form id (the trained alphabet)."""
        if self._alphabet is None:
            specials = set(self.special_tokens)
            self._alphabet = {s for s in self.vocab if len(s) == 1 and s not in specials}
        return self._alphabet


def _char_counts(word_counts: Counter) -> Counter:
    chars: Counter = Counter()
    for word, n in word_counts.items():
        for ch in word:
            chars[ch] += n
    return chars


def _coverage_alphabet(chars: Counter, coverage: float) -> list[str]:
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


def build_alphabet(texts: Iterable[str], coverage: float = 1.0) -> list[str]:
    """Characters by descending corpus frequency (ties by codepoint), cut to
    the smallest prefix covering the requested share of character occurrences."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    word_counts: Counter = Counter()
    for line in texts:
        word_counts.update(line.split())
    return _coverage_alphabet(_char_counts(word_counts), coverage)


def _word_symbols(word: str, alphabet: set[str], unk: str, marker: str = WORD_END) -> tuple[str, ...]:
    """Initial symbol sequence: characters with the marker on the last one;
    characters outside the alphabet become the unknown surface (unmarked)."""
    syms = [ch if ch in alphabet else unk for ch in word]
    syms[-1] = syms[-1] + marker if word[-1] in alphabet else unk
    return tuple(syms)


def _merge_once(symbols: Sequence[str], pair: tuple[str, str]) -> tuple[str, ...]:
    """Replace non-overlapping occurrences of pair, leftmost first."""
    a, b = pair
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


class _PairIndex:
    """Weighted adjacent-pair counts over all words, with a lazy max-heap.

    ``counts[p]`` is the frequency-weighted number of occurrences of pair p,
    and ``where[p]`` the indices of the words that contain it; both hold only
    pairs that occur. Heap entries are (-count, pair), so the smallest entry
    is the most frequent pair with ties to the smallest pair. An entry is
    stale when its count no longer matches ``counts``; stale entries are
    dropped when they reach the top. Each merge sums the count changes over
    all touched words first and pushes one entry per pair whose count moved.
    """

    def __init__(self, words: list[tuple[str, ...]], freqs: list[int]):
        self.words = words
        self.freqs = freqs
        self.counts: Counter = Counter()
        self.where: dict[tuple[str, str], set[int]] = {}
        for idx, (syms, n) in enumerate(zip(words, freqs)):
            for pair in zip(syms, syms[1:]):
                self.counts[pair] += n
                self.where.setdefault(pair, set()).add(idx)
        self.heap = [(-count, pair) for pair, count in self.counts.items()]
        heapq.heapify(self.heap)

    def best_pair(self) -> tuple[str, str] | None:
        heap, counts = self.heap, self.counts
        while heap:
            neg, pair = heap[0]
            if counts.get(pair, 0) == -neg:
                return pair
            heapq.heappop(heap)  # stale entry
        return None

    def apply_merge(self, pair: tuple[str, str]) -> None:
        words, freqs, where, counts = self.words, self.freqs, self.where, self.counts
        delta: dict[tuple[str, str], int] = defaultdict(int)
        for idx in list(where[pair]):
            old = words[idx]
            new = _merge_once(old, pair)
            words[idx] = new
            n = freqs[idx]
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for p in old_pairs:
                delta[p] -= n
            for p in new_pairs:
                delta[p] += n
            old_set, new_set = set(old_pairs), set(new_pairs)
            for p in old_set - new_set:
                members = where[p]
                members.discard(idx)
                if not members:
                    del where[p]
            for p in new_set - old_set:
                where.setdefault(p, set()).add(idx)
        for p, d in delta.items():
            if d:
                count = counts[p] + d
                if count:
                    counts[p] = count
                    heapq.heappush(self.heap, (-count, p))
                else:
                    del counts[p]


def learn_bpe(texts: Iterable[str], cfg: TokenizerConfig) -> BpeModel:
    """Learn merges until the vocabulary holds exactly cfg.vocab_size entries.

    Deterministic for a fixed corpus and config. Raises if the corpus cannot
    support the requested size (alphabet too large, or merges exhausted).
    """
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))

    word_counts: Counter = Counter()
    for line in texts:
        word_counts.update(line.split())
    if not word_counts:
        raise ValueError("cannot learn a tokenizer from an empty corpus")

    specials = list(cfg.special_tokens)
    alphabet = _coverage_alphabet(_char_counts(word_counts), cfg.character_coverage)
    alpha_set = set(alphabet)

    vocab: dict[str, int] = {}
    for tok in specials:
        vocab[tok] = len(vocab)
    for ch in alphabet:
        vocab.setdefault(ch, len(vocab))
    for ch in alphabet:
        vocab.setdefault(ch + WORD_END, len(vocab))

    if cfg.vocab_size < len(vocab):
        raise ValueError(
            f"vocab_size {cfg.vocab_size} cannot hold {len(specials)} specials plus "
            f"{len(alphabet)} characters and their word-final variants ({len(vocab)} entries)"
        )

    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    for word, n in word_counts.items():
        if word in vocab:  # a literal special token stays atomic in training too
            continue
        words.append(_word_symbols(word, alpha_set, cfg.special_tokens[0]))
        freqs.append(n)

    index = _PairIndex(words, freqs)
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

    return BpeModel(merges=merges, vocab=vocab, special_tokens=specials, config=cfg)


def _segment_word(word: str, model: BpeModel) -> list[str]:
    ranks = model.merge_ranks()
    symbols = list(_word_symbols(word, model.alphabet(), model.unk_token, model.end_of_word_marker))
    while len(symbols) >= 2:
        best_rank = None
        best_i = -1
        for i in range(len(symbols) - 1):
            r = ranks.get((symbols[i], symbols[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        symbols[best_i:best_i + 2] = [symbols[best_i] + symbols[best_i + 1]]
    return symbols


def encode(model: BpeModel, text: str) -> list[int]:
    """Whitespace-pretokenize and segment each word with the learned merges.

    Special-token surfaces are atomic: one word, one id. Unknown characters
    map to the unknown id. Casing is untouched.
    """
    ids: list[int] = []
    vocab = model.vocab
    specials = set(model.special_tokens)
    for word in text.split():
        if word in specials:
            ids.append(vocab[word])
            continue
        cached = model._word_cache.get(word)
        if cached is None:
            pieces = _segment_word(word, model)
            cached = tuple(vocab.get(p, model.unk_id) for p in pieces)
            model._word_cache[word] = cached
        ids.extend(cached)
    return ids


def decode(model: BpeModel, ids: Iterable[int]) -> str:
    """Inverse of encode on fully covered text: markers become spaces.

    Unknown ids in the input reproduce the unknown token surface, not the
    original characters. An id outside the vocabulary is an error.
    """
    specials = set(model.special_tokens)
    marker = model.end_of_word_marker
    parts: list[str] = []
    for idx in ids:
        try:
            sub = model.id_to_subword(idx)
        except KeyError:
            raise ValueError(f"id {idx} is not in the vocabulary") from None
        if sub in specials:
            parts.append(sub)
            parts.append(" ")
        elif sub.endswith(marker):
            parts.append(sub[: -len(marker)])
            parts.append(" ")
        else:
            parts.append(sub)
    out = "".join(parts)
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
    return BpeModel(
        merges=list(model.merges),
        vocab=vocab,
        special_tokens=specials,
        end_of_word_marker=model.end_of_word_marker,
        config=model.config,
    )


# ---------------------------------------------------------------------------
# Model files: a merges file with a header line recording the conventions,
# one "left right" pair per line (rank = line order), and a vocab file with
# one "subword<TAB>id" per line. Load/save round-trips are byte-stable.

_HEADER_PREFIX = "#corpuskit-bpe v1"


def save_model(model: BpeModel, merges_path: Path | str, vocab_path: Path | str) -> None:
    cfg = model.config
    header = (
        f"{_HEADER_PREFIX}\tmarker={model.end_of_word_marker}"
        f"\tvocab_size={cfg.vocab_size}\tcoverage={cfg.character_coverage!r}"
        f"\tcased=true\tspecials={' '.join(model.special_tokens)}"
    )
    with open(merges_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for a, b in model.merges:
            f.write(f"{a} {b}\n")
    with open(vocab_path, "w", encoding="utf-8", newline="\n") as f:
        for sub, idx in sorted(model.vocab.items(), key=lambda kv: kv[1]):
            f.write(f"{sub}\t{idx}\n")


def load_model(merges_path: Path | str, vocab_path: Path | str) -> BpeModel:
    with open(merges_path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError(f"{merges_path}: not a corpuskit BPE merges file")
        fields = dict(part.split("=", 1) for part in header.split("\t")[1:])
        merges = []
        for line in f:
            a, b = line.rstrip("\n").split(" ")
            merges.append((a, b))
    vocab: dict[str, int] = {}
    with open(vocab_path, "r", encoding="utf-8") as f:
        for line in f:
            sub, idx = line.rstrip("\n").split("\t")
            vocab[sub] = int(idx)
    specials = fields["specials"].split(" ")
    cfg = TokenizerConfig(
        vocab_size=int(fields["vocab_size"]),
        character_coverage=float(fields["coverage"]),
        special_tokens=tuple(specials),
    )
    return BpeModel(
        merges=merges,
        vocab=vocab,
        special_tokens=specials,
        end_of_word_marker=fields["marker"],
        config=cfg,
    )
