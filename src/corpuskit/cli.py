"""Batch command line for the corpus toolkit.

Subcommands mirror the library stages: ingest, filter, dedup, split,
train-bpe, encode, prep-tweets, encode-labels, make-nli, build, stats.
All corpus output is UTF-8, one sentence per line. Exit code is 0 on
success and 1 on any stage failure, with a stage-tagged diagnostic on
stderr.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path

from . import bpe, dedup, nli, pipeline, tweets
from .core import CorpusError, decoded_lines
from .filters import FilterConfig, apply_filters
from .ingest import (
    SKIP_KINDS,
    Side,
    extract_bitext_side,
    read_paired_bitext,
    read_plain_corpus,
    read_tsv_bitext,
)
from .labels import N_FLAGS, encode_label_flags
from .split import SplitConfig, SplitUnit, split_articles, split_corpus


@contextmanager
def _replaced_on_success(path: str):
    """A temporary path beside path, moved onto it only if the block succeeds, so a failed
    command keeps the earlier output. Only a new path or a regular file with one link is
    staged; a symlink, a device, or a file in a directory that takes no new file is written in place."""
    st = os.lstat(path) if os.path.lexists(path) else None
    staging = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        with suppress(OSError):  # opening the path itself then names the output in its error
            staging = tempfile.TemporaryDirectory(prefix=".corpuskit-", dir=os.path.dirname(os.path.abspath(path)))
    if staging is None:
        yield path
        return
    with staging as tmp:
        staged = os.path.join(tmp, "out")
        yield staged
        if st:
            os.chmod(staged, stat.S_IMODE(st.st_mode))
        os.replace(staged, path)


@contextmanager
def _open_out(path: str):
    with _replaced_on_success(path) as staged, open(staged, "w", encoding="utf-8", newline="\n") as out:
        yield out


def cmd_ingest(args) -> int:
    if args.format == "paired" and len(args.inputs) != 2:
        raise CorpusError("paired format takes exactly two input files")
    if args.format != "paired" and len(args.inputs) != 1:
        raise CorpusError(f"{args.format} format takes exactly one input file")
    counts: Counter = Counter()
    n = 0
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "rb")) for path in args.inputs]
        out = stack.enter_context(_open_out(args.out))
        if args.format == "plain":
            records = read_plain_corpus(files[0], args.source_id, counts)
        else:
            if args.format == "tsv":
                pairs = read_tsv_bitext(files[0], args.source_id, counts)
            else:
                pairs = read_paired_bitext(files[0], files[1], args.source_id, counts)
            records = extract_bitext_side(pairs, Side(args.side), args.source_id, counts)
        for rec in records:
            out.write(rec.text + "\n")
            n += 1
    skipped = sum(counts[kind] for kind in SKIP_KINDS)
    print(f"read={counts['lines']} extracted={n} skipped={skipped}", file=sys.stderr)
    return 0


def cmd_filter(args) -> int:
    cfg = FilterConfig()
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = pipeline.filter_config_from_mapping(pipeline.parse_flat_config(text))
    problems = cfg.validate()
    if problems:
        raise CorpusError("bad filter config: " + "; ".join(problems))

    counts: Counter = Counter()
    kept = 0
    rejected: Counter = Counter()
    with open(args.infile, "rb") as f, _open_out(args.out) as out, _open_out(args.rejects) as rej:
        for rec in read_plain_corpus(f, args.infile, counts):
            verdict = apply_filters(rec.text, cfg)
            if verdict.passed:
                out.write(rec.text + "\n")
                kept += 1
            else:
                rejected[verdict.reason.value] += 1
                rej.write(f"{verdict.reason.value}\t{rec.text}\n")
    detail = " ".join(f"{k}={v}" for k, v in sorted(rejected.items()))
    print(f"read={counts['lines']} kept={kept} rejected={sum(rejected.values())} {detail}".rstrip(),
          file=sys.stderr)
    return 0


def cmd_dedup(args) -> int:
    with _replaced_on_success(args.out) as out:
        if args.external_sort:
            summary = dedup.dedup_files(args.inputs, out, tmp_dir=args.tmp)
        else:
            summary = dedup.dedup_lines(args.inputs, out)
    print(summary.line())
    return 0


def cmd_split(args) -> int:
    cfg = SplitConfig(ratio=args.ratio, seed=args.seed, unit=SplitUnit(args.unit))
    problems = cfg.validate()
    if problems:
        raise CorpusError("; ".join(problems))

    if cfg.unit is SplitUnit.DOCUMENT:
        # Imported at call time, so a wrapper set on ingest.read_articles_file is the one called.
        from .ingest import read_articles_file

        units = list(read_articles_file(args.infile))
        sides = split_articles(units, cfg)

        def render(art):
            return "\n".join(art) + "\n\n"
    else:
        # Lines are keyed by the file's base name, so `a.txt` and `./a.txt` split alike.
        with open(args.infile, "rb") as f:
            units = list(read_plain_corpus(f, Path(args.infile).name))
        sides = split_corpus(units, cfg)

        def render(rec):
            return rec.text + "\n"
    with _open_out(args.out_a) as out_a, _open_out(args.out_b) as out_b:
        for out, side in zip((out_a, out_b), sides):
            out.writelines(map(render, side))
    print(f"units={len(units)} a={len(sides[0])} b={len(sides[1])}", file=sys.stderr)
    return 0


def cmd_train_bpe(args) -> int:
    cfg = bpe.TokenizerConfig(
        vocab_size=args.vocab_size,
        character_coverage=args.coverage,
        special_tokens=tuple(args.special_tokens.split()) if args.special_tokens else bpe.DEFAULT_SPECIALS,
    )

    def texts():
        for path in args.inputs:
            with open(path, "rb") as f:
                yield from (line for _, line in decoded_lines(f, path))

    model = bpe.learn_bpe(texts(), cfg)
    with _replaced_on_success(args.merges_out) as merges, _replaced_on_success(args.vocab_out) as vocab:
        bpe.save_model(model, merges, vocab)
    print(f"vocab={len(model.vocab)} merges={len(model.merges)}", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    model = bpe.load_model(args.merges, args.vocab)
    with open(args.infile, "rb") as f, _open_out(args.out) as out:
        for _, line in decoded_lines(f, args.infile):
            out.write(" ".join(map(str, bpe.encode(model, line))) + "\n")
    return 0


def cmd_prep_tweets(args) -> int:
    n = 0
    with open(args.infile, "rb") as f, _open_out(args.out) as out:
        for _, line in decoded_lines(f, args.infile):
            line = line.rstrip("\r\n")
            if not line:
                continue
            text, sep, label = line.rpartition("\t")
            if not sep:  # no label column, clean the whole line
                text, label = line, None
            cleaned = tweets.preprocess_tweet(text)
            out.write(cleaned + ("\t" + label if label is not None else "") + "\n")
            n += 1
    print(f"processed={n}", file=sys.stderr)
    return 0


def cmd_encode_labels(args) -> int:
    n = 0
    with open(args.infile, "rb") as f, _open_out(args.out) as out:
        for ln, line in decoded_lines(f, args.infile):
            line = line.strip()
            if not line:
                continue
            flags = [v.strip() for v in line.split(",")]
            if len(flags) != N_FLAGS or any(v not in ("0", "1") for v in flags):
                raise CorpusError(f"{args.infile}:{ln}: expected {N_FLAGS} binary columns, got {line!r}")
            out.write(f"{encode_label_flags([int(v) for v in flags])}\n")
            n += 1
    print(f"encoded={n}", file=sys.stderr)
    return 0


def cmd_make_nli(args) -> int:
    from .ingest import read_articles_file

    articles = list(read_articles_file(args.infile))
    result = nli.make_nli_pairs(articles, args.seed, premise_first=not args.later_as_premise)
    with _open_out(args.out) as out:
        for pair in result.pairs:
            premise = pair.premise.replace("\t", " ")
            hypothesis = pair.hypothesis.replace("\t", " ")
            out.write(f"{premise}\t{hypothesis}\t{pair.label.value}\n")
    print(
        f"articles={len(articles)} entailment={result.n_entailment} "
        f"contradiction={result.n_contradiction} skipped_short={result.short_articles_skipped} "
        f"unfilled={result.contradictions_unfilled}",
        file=sys.stderr,
    )
    if result.contradictions_unfilled and not result.n_contradiction:
        print("warning: no cross-article sentences available for contradictions", file=sys.stderr)
    return 0


def cmd_build(args) -> int:
    cfg = pipeline.load_config(args.config)
    stats = pipeline.run_pipeline(cfg)
    _, table = pipeline.report_stats(stats)
    print(table, end="")
    return 0


def cmd_stats(args) -> int:
    text = Path(args.infile).read_text(encoding="utf-8")
    stats = pipeline.stats_from_jsonl(text)
    _, table = pipeline.report_stats(stats)
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="corpuskit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="read a plain or bilingual corpus, emit one sentence per line")
    sp.add_argument("inputs", nargs="+", help="input file(s); paired format takes two")
    sp.add_argument("--format", choices=pipeline.SOURCE_FORMATS, default="plain")
    sp.add_argument("--side", choices=[side.value for side in Side], default="target")
    sp.add_argument("--source-id", default="corpus")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("filter", help="apply the five quality filters")
    sp.add_argument("--config", help="flat key=value file mirroring the filter thresholds")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--rejects", required=True, help="audit file of reason<TAB>text lines")
    sp.set_defaults(func=cmd_filter)

    sp = sub.add_parser("dedup", help="exact line dedup, keep-first")
    sp.add_argument("--in", dest="inputs", nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--external-sort", action="store_true",
                    help="bounded-memory two-pass mode for corpora larger than RAM")
    sp.add_argument("--tmp", default=None, help="directory for external-sort spill files")
    sp.set_defaults(func=cmd_dedup)

    sp = sub.add_parser("split", help="deterministic seeded split with exact quotas")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--ratio", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--unit", choices=[unit.value for unit in SplitUnit], default="document",
                    help="document = blank-line separated block")
    sp.add_argument("--out-a", required=True)
    sp.add_argument("--out-b", required=True)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("train-bpe", help="learn a cased BPE subword vocabulary")
    sp.add_argument("--in", dest="inputs", nargs="+", required=True)
    sp.add_argument("--vocab-size", type=int, default=32_000)
    sp.add_argument("--coverage", type=float, default=1.0)
    sp.add_argument("--special-tokens", default=None, help="space-separated, unknown token first")
    sp.add_argument("--merges-out", required=True)
    sp.add_argument("--vocab-out", required=True)
    sp.set_defaults(func=cmd_train_bpe)

    sp = sub.add_parser("encode", help="encode text to subword ids, one line of ids per input line")
    sp.add_argument("--merges", required=True)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("prep-tweets", help="normalize tweet text (text<TAB>label or bare text)")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_prep_tweets)

    sp = sub.add_parser("encode-labels", help="5 binary CSV columns -> one class integer per line")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_encode_labels)

    sp = sub.add_parser("make-nli", help="entailment/contradiction pairs from blank-line separated articles")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--later-as-premise", action="store_true",
                    help="put the later sentence in the premise slot")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_make_nli)

    sp = sub.add_parser("build", help="run the full pipeline from a config document")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("stats", help="validate and pretty-print a stats.jsonl report")
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func=cmd_stats)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorpusError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: [{args.command}] {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
