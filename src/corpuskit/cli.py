"""Batch command line for the corpus toolkit.

Subcommands mirror the library stages: ingest, filter, dedup, split,
train-bpe, encode, prep-tweets, encode-labels, make-nli, build, stats.
All corpus output is UTF-8, one sentence per line. Exit code is 0 on
success and 1 on any stage failure, with a stage-tagged diagnostic on
stderr.
"""

from __future__ import annotations

import argparse
import sys
from array import array
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from . import bpe, dedup, nli, pipeline, tweets
from .core import CorpusError, decoded_lines, staged_outputs
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


def _open_out(stage, path: str):
    return open(stage(path), "w", encoding="utf-8", newline="\n")


def cmd_ingest(args) -> int:
    if args.format == "paired" and len(args.inputs) != 2:
        raise CorpusError("paired format takes exactly two input files")
    if args.format != "paired" and len(args.inputs) != 1:
        raise CorpusError(f"{args.format} format takes exactly one input file")
    counts: Counter = Counter()
    n = 0
    with staged_outputs() as stage, ExitStack() as stack:
        files = [stack.enter_context(open(path, "rb")) for path in args.inputs]
        out = stack.enter_context(_open_out(stage, args.out))
        if args.format == "plain":
            records = read_plain_corpus(files[0], args.source_id, counts)
        else:
            if args.format == "tsv":
                pairs = read_tsv_bitext(files[0], args.source_id, counts)
            else:
                pairs = read_paired_bitext(files[0], files[1], args.source_id, counts)
            records = extract_bitext_side(pairs, Side(args.side), args.source_id, counts)
        for text, _ in records:
            out.write(text + "\n")
            n += 1
    skipped = sum(counts[kind] for kind in SKIP_KINDS)
    print(f"read={counts['lines']} extracted={n} skipped={skipped}", file=sys.stderr)
    return 0


def cmd_filter(args) -> int:
    cfg = pipeline.load_config(args.config).filter_cfg if args.config else FilterConfig()
    problems = cfg.validate()
    if problems:
        raise CorpusError("bad filter config: " + "; ".join(problems))

    counts: Counter = Counter()
    kept = 0
    rejected: Counter = Counter()
    with (staged_outputs() as stage, open(args.infile, "rb") as f, _open_out(stage, args.out) as out,
          _open_out(stage, args.rejects) as rej):
        for text, _ in read_plain_corpus(f, args.infile, counts):
            verdict = apply_filters(text, cfg)
            if verdict.passed:
                out.write(text + "\n")
                kept += 1
            else:
                rejected[verdict.reason.value] += 1
                rej.write(f"{verdict.reason.value}\t{text}\n")
    detail = " ".join(f"{k}={v}" for k, v in sorted(rejected.items()))
    print(f"read={counts['lines']} kept={kept} rejected={sum(rejected.values())} {detail}".rstrip(),
          file=sys.stderr)
    return 0


def cmd_dedup(args) -> int:
    with staged_outputs() as stage:
        if args.external_sort:
            summary = dedup.dedup_files(args.inputs, stage(args.out), tmp_dir=args.tmp)
        else:
            summary = dedup.dedup_lines(args.inputs, stage(args.out))
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
        n, n_a = len(units), len(sides[0])

        def write(out_a, out_b):
            for out, side in zip((out_a, out_b), sides):
                out.writelines("\n".join(art) + "\n\n" for art in side)
    else:
        # Lines are keyed by the file's base name, so `a.txt` and `./a.txt` split alike.
        source_id = Path(args.infile).name
        with open(args.infile, "rb") as f:
            line_nos = array("Q", (line_no for _, line_no in read_plain_corpus(f, source_id)))
        side_a = split_corpus({source_id: line_nos}, cfg)[0]  # positions in the file's non-blank lines
        n, n_a = len(line_nos), len(side_a)

        def write(out_a, out_b):
            # Lines are routed on a second reading of the input, which must
            # give back as many lines as the first.
            next_a = iter(side_a)
            want = next(next_a, None)
            i = -1
            with open(args.infile, "rb") as f:
                for i, (text, _) in enumerate(read_plain_corpus(f, source_id)):
                    if i == want:
                        out_a.write(text + "\n")
                        want = next(next_a, None)
                    else:
                        out_b.write(text + "\n")
            if i + 1 != n:
                raise ValueError(f"{args.infile} reads back {i + 1} non-blank lines, not the {n} of its first reading")
    with staged_outputs() as stage, _open_out(stage, args.out_a) as out_a, _open_out(stage, args.out_b) as out_b:
        write(out_a, out_b)
    print(f"units={n} a={n_a} b={n - n_a}", file=sys.stderr)
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
    # Merges commit first: load_model refuses new merges whose outputs the old
    # vocabulary lacks, but would load a new vocabulary beside the old merges.
    with staged_outputs() as stage:
        bpe.save_model(model, stage(args.merges_out), stage(args.vocab_out))
    print(f"vocab={len(model.vocab)} merges={len(model.merges)}", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    model = bpe.load_model(args.merges, args.vocab)
    with staged_outputs() as stage, open(args.infile, "rb") as f, _open_out(stage, args.out) as out:
        for _, line in decoded_lines(f, args.infile):
            out.write(" ".join(map(str, bpe.encode(model, line))) + "\n")
    return 0


def cmd_prep_tweets(args) -> int:
    n = 0
    with staged_outputs() as stage, open(args.infile, "rb") as f, _open_out(stage, args.out) as out:
        for _, line in decoded_lines(f, args.infile):
            line = line.rstrip("\r\n")
            if not line:
                continue
            text, sep, label = line.rpartition("\t")
            if not sep:  # no label column, clean the whole line
                text, label = line, None
            cleaned = tweets.preprocess_tweet(text)
            # the label is copied out as it is, less trailing whitespace, where a CR may sit
            out.write(cleaned + ("\t" + label.rstrip() if label is not None else "") + "\n")
            n += 1
    print(f"processed={n}", file=sys.stderr)
    return 0


def cmd_encode_labels(args) -> int:
    n = 0
    with staged_outputs() as stage, open(args.infile, "rb") as f, _open_out(stage, args.out) as out:
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
    with staged_outputs() as stage, _open_out(stage, args.out) as out:
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
    if not cfg.sources:  # a [filter]-only document would build an empty corpus
        raise ValueError(f"{args.config}: no [source.<id>] section, so there is nothing to build")
    stats = pipeline.run_pipeline(cfg)
    _, table = pipeline.report_stats(stats)
    print(table, end="")
    return 0


def cmd_stats(args) -> int:
    with open(args.infile, "rb") as f:
        text = "".join(line for _, line in decoded_lines(f, args.infile))
    try:
        _, table = pipeline.report_stats(pipeline.stats_from_jsonl(text))
    except ValueError as e:
        raise ValueError(f"{args.infile}: {e}") from None
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
    sp.add_argument("--config", help="build config document; its [filter] section sets the thresholds")
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
