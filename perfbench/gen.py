"""Seeded input generators for the three benchmark workloads.

Each generator writes its files under one directory and returns a manifest:
what the measured child needs (a build config, or the CLI argument lists),
the input files, and the facts the correctness gate checks against. The same
seed always gives byte-identical files; different seeds give different text
with the same statistical shape, so run times compare across seeds.
"""

from __future__ import annotations

import random
from pathlib import Path

# Mostly-ASCII crawl text, shaped like the acceptance-8 fixture.
_ASCII_SYLLABLES = ("ka", "ma", "ta", "po", "si", "na", "ba", "la", "nga", "in", "an", "um", "pag", "di")
_ACCENT_WORDS = ("café", "niño", "señora", "über", "façade", "jalapeño", "naïve", "déjà")
_CYRILLIC_SYLLABLES = ("при", "мер", "тек", "ста", "на", "рус", "ском", "язы", "ке")
_SHORT_WORDS = ("a", "ka", "si", "o", "ba", "na", "ay", "at")
_PUNCT_RUNS = ("!!!", "?!?", "...", "///")
_HTML_TOKENS = ("www.balita.ph", "shop.com", "index.html", "page.php", "href=x", "</div", "br/>")

# Accented Latin with a long tail of distinct words (20^2..20^5 spellings).
_ACCENTED_SYLLABLES = (
    "ká", "mà", "tö", "pé", "sí", "ñá", "bå", "lè", "ngã", "ìn",
    "ân", "üm", "pàg", "dï", "ça", "ré", "ló", "vú", "za", "ki",
)

REJECT_REASONS = ("NonLatin", "Length", "PunctRun", "AvgWordLen", "Html")

SPLIT_RATIO = "0.6"
FULL_VOCAB_SIZE = 400  # the acceptance-8 tokenizer
PREP_VOCAB_SIZE = 320


def _word(rng: random.Random, syllables, lo: int = 2, hi: int = 5) -> str:
    w = "".join(rng.choices(syllables, k=rng.randrange(lo, hi)))
    return w.capitalize() if rng.random() < 0.15 else w


def _sentence(rng: random.Random, syllables, lo: int = 6, hi: int = 13) -> str:
    return " ".join(_word(rng, syllables) for _ in range(rng.randrange(lo, hi)))


def _crawl_sentence(rng: random.Random) -> str:
    words = _sentence(rng, _ASCII_SYLLABLES).split()
    if rng.random() < 0.03:  # a small share of accented (still Latin) lines
        words[rng.randrange(len(words))] = rng.choice(_ACCENT_WORDS)
    return " ".join(words)


def _reject_line(rng: random.Random, reason: str) -> str:
    """A line that the default filter chain rejects with exactly `reason`."""
    if reason == "NonLatin":
        return _sentence(rng, _CYRILLIC_SYLLABLES, 5, 9)
    if reason == "Length":
        n = rng.randrange(151, 170) if rng.random() < 0.1 else rng.randrange(1, 4)
        return " ".join(_word(rng, _ASCII_SYLLABLES) for _ in range(n))
    words = _sentence(rng, _ASCII_SYLLABLES).split()
    i = rng.randrange(len(words))
    if reason == "PunctRun":
        words[i] += rng.choice(_PUNCT_RUNS)
    elif reason == "AvgWordLen":
        words = [rng.choice(_SHORT_WORDS) for _ in range(rng.randrange(5, 10))]
    elif reason == "Html":
        words[i] = rng.choice(_HTML_TOKENS)
    return " ".join(words)


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


def _build_config(path: Path, out_dir: Path, seed: int, sources: str, tokenizer: bool) -> None:
    text = (
        f"[pipeline]\noutput_dir = {out_dir}\nseed = {seed}\n\n"
        "[filter]\nmin_tokens = 4\nmax_tokens = 150\n\n"
        f"[split]\nratio = {SPLIT_RATIO}\nunit = line\n\n"
    )
    if tokenizer:
        text += f"[tokenizer]\nvocab_size = {FULL_VOCAB_SIZE}\ncharacter_coverage = 1.0\n\n"
    path.write_text(text + sources, encoding="utf-8")


def make_build(workload: str, seed: int, root: Path, target_bytes: int) -> dict:
    """Plain, TSV and paired sources (75/15/10 % of the bytes) carrying every
    filter reject reason, every ingest skip kind and planted duplicates."""
    rng = random.Random(f"{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)

    web: list[str] = []
    clean: list[str] = []
    size = 0
    i = 0
    while size < target_bytes * 0.75:
        start = len(web)
        line = _crawl_sentence(rng)
        web.append(line)
        clean.append(line)
        if i % 17 == 0:
            web.append(_reject_line(rng, REJECT_REASONS[(i // 17) % len(REJECT_REASONS)]))
        if i % 11 == 0:
            web.append(rng.choice(clean))  # planted duplicate
        if i % 97 == 0:
            web.append("")  # ingest skip: Empty
        size += sum(len(x.encode("utf-8")) + 1 for x in web[start:])
        i += 1

    tsv: list[str] = []
    size = 0
    while size < target_bytes * 0.15:
        n = len(tsv)
        if n % 41 == 40:
            tsv.append(f"orphan line {n} without a tab")  # ingest skip: Malformed
        else:
            r = rng.random()
            target = (rng.choice(clean) if r < 0.03
                      else _reject_line(rng, rng.choice(REJECT_REASONS)) if r < 0.08
                      else _crawl_sentence(rng))
            tsv.append(f"english sentence number {n} here\t{target}")
        size += len(tsv[-1].encode("utf-8")) + 1

    paired: list[str] = []
    size = 0
    while size < target_bytes * 0.10:
        # ingest skip: EmptySide on every 53rd pair
        paired.append("" if len(paired) % 53 == 52 else _crawl_sentence(rng))
        size += len(paired[-1].encode("utf-8")) + len(f"source line {len(paired)}") + 2

    files = {
        "web": root / "web.txt",
        "aligned": root / "aligned.tsv",
        "paired.src": root / "paired.src.txt",
        "paired.tgt": root / "paired.tgt.txt",
    }
    _write_lines(files["web"], web)
    _write_lines(files["aligned"], tsv)
    _write_lines(files["paired.src"], (f"source line {k}" for k in range(len(paired))))
    _write_lines(files["paired.tgt"], paired)

    sources = (
        f"[source.web]\npath = {files['web']}\nformat = plain\n\n"
        f"[source.aligned]\npath = {files['aligned']}\nformat = tsv\nside = target\n\n"
        f"[source.paired]\npath = {files['paired.src']}\npath2 = {files['paired.tgt']}\n"
        "format = paired\nside = target\n"
    )
    config = root / "build.ini"
    out_dir = root / "out"
    _build_config(config, out_dir, rng.randrange(2**31), sources, workload == "full_build")
    return {
        "kind": "build",
        "config": str(config),
        "out_dir": str(out_dir),
        "inputs": [str(p) for p in files.values()],
        "expect": {
            "ingest_lines": {"web": len(web), "aligned": len(tsv), "paired": len(paired)},
            "vocab_size": FULL_VOCAB_SIZE if workload == "full_build" else None,
        },
    }


def _accented_sentence(rng: random.Random, lo: int = 6, hi: int = 13) -> str:
    return _sentence(rng, _ACCENTED_SYLLABLES + _ASCII_SYLLABLES[:4], lo, hi)


def _tweet(rng: random.Random) -> str:
    words = _accented_sentence(rng, 4, 10).split()
    extras = (
        "@" + _word(rng, _ASCII_SYLLABLES), "#" + _word(rng, _ACCENTED_SYLLABLES),
        "http://t.co/" + _word(rng, _ASCII_SYLLABLES), "www.balita.ph",
        "&amp;", "&quot;hi&quot;", "&lt;3", "it 's", "one - two", ",", "!", "?", "( ok )",
    )
    for _ in range(rng.randrange(1, 5)):
        words.insert(rng.randrange(len(words) + 1), rng.choice(extras))
    return " ".join(words)


def make_prep(seed: int, root: Path, target_bytes: int, bpe) -> dict:
    """Inputs for the CLI stage chain, plus a BPE model trained on a sample
    of the same accented text (trained here, outside any measured process)."""
    rng = random.Random(f"prep_cli:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"

    def lines_until(nbytes: float, make):
        lines, size = [], 0
        while size < nbytes:
            lines.append(make(len(lines)))
            size += len(lines[-1].encode("utf-8")) + 1
        return lines

    pool: list[str] = []

    def bitext_target() -> str:
        r = rng.random()
        if pool and r < 0.10:
            return rng.choice(pool)  # planted duplicate
        line = _reject_line(rng, rng.choice(REJECT_REASONS)) if r < 0.16 else _accented_sentence(rng)
        pool.append(line)
        return line

    tsv = lines_until(target_bytes * 0.35, lambda n: (
        f"orphan line {n}" if n % 41 == 40 else f"source sentence {n}\t{bitext_target()}"))
    paired = lines_until(target_bytes * 0.15, lambda n: "" if n % 53 == 52 else bitext_target())

    articles: list[list[str]] = []
    size = 0
    while size < target_bytes * 0.25:
        art = [_accented_sentence(rng) for _ in range(rng.randrange(2, 9))]
        articles.append(art)
        size += sum(len(s.encode("utf-8")) + 1 for s in art) + 1
    tweets = lines_until(target_bytes * 0.20, lambda n: f"{_tweet(rng)}\t{rng.randrange(2)}")
    flags = [[rng.randrange(2) for _ in range(5)] for _ in range(int(target_bytes * 0.05) // 10)]

    files = {
        "tsv": root / "bitext.tsv",
        "paired.src": root / "paired.src.txt",
        "paired.tgt": root / "paired.tgt.txt",
        "articles": root / "articles.txt",
        "tweets": root / "tweets.tsv",
        "flags": root / "flags.csv",
    }
    _write_lines(files["tsv"], tsv)
    _write_lines(files["paired.src"], (f"source line {k}" for k in range(len(paired))))
    _write_lines(files["paired.tgt"], paired)
    _write_lines(files["articles"], ("\n".join(art) + "\n" for art in articles))
    _write_lines(files["tweets"], tweets)
    _write_lines(files["flags"], (",".join(map(str, row)) for row in flags))

    # The model sees every syllable (and its capitalised form), so most
    # encoded lines are fully covered and round-trip exactly.
    sample = [_accented_sentence(rng) for _ in range(500)]
    sample.append(" ".join(s + s.capitalize() for s in _ACCENTED_SYLLABLES + _ASCII_SYLLABLES))
    model = bpe.learn_bpe(sample, bpe.TokenizerConfig(vocab_size=PREP_VOCAB_SIZE))
    model_files = (str(root / "bpe.merges.txt"), str(root / "bpe.vocab.txt"))
    bpe.save_model(model, *model_files)

    o = {name: str(out / name) for name in (
        "ingest_tsv.txt", "ingest_paired.txt", "kept.txt", "rejects.tsv", "unique.txt",
        "split_a.txt", "split_b.txt", "nli.tsv", "tweets.clean.tsv", "classes.csv", "ids.txt")}
    encode_argv = ["encode", "--merges", model_files[0], "--vocab", model_files[1],
                   "--in", o["unique.txt"], "--out", o["ids.txt"]]
    chain = [
        ["ingest", str(files["tsv"]), "--format", "tsv", "--side", "target",
         "--source-id", "bitext", "--out", o["ingest_tsv.txt"]],
        ["ingest", str(files["paired.src"]), str(files["paired.tgt"]), "--format", "paired",
         "--side", "target", "--source-id", "paired", "--out", o["ingest_paired.txt"]],
        ["filter", "--in", o["ingest_tsv.txt"], "--out", o["kept.txt"], "--rejects", o["rejects.tsv"]],
        ["dedup", "--in", o["kept.txt"], o["ingest_paired.txt"], "--out", o["unique.txt"],
         "--external-sort", "--tmp", str(root)],
        ["split", "--in", str(files["articles"]), "--ratio", SPLIT_RATIO, "--seed", str(rng.randrange(2**31)),
         "--unit", "document", "--out-a", o["split_a.txt"], "--out-b", o["split_b.txt"]],
        ["make-nli", "--in", o["split_b.txt"], "--seed", str(rng.randrange(2**31)), "--out", o["nli.tsv"]],
        ["prep-tweets", "--in", str(files["tweets"]), "--out", o["tweets.clean.tsv"]],
        ["encode-labels", "--in", str(files["flags"]), "--out", o["classes.csv"]],
        encode_argv,
    ]
    return {
        "kind": "prep",
        "out_dir": str(out),
        "inputs": [str(p) for p in files.values()] + list(model_files),
        "chain": chain,
        "encode_argv": encode_argv,
        "expect": {
            "ingest_tsv": sum(1 for line in tsv if "\t" in line),
            "ingest_paired": sum(1 for line in paired if line),
            "articles": len(articles),
            "tweets": len(tweets),
        },
    }
