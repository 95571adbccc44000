"""End-to-end corpus build: ingest -> filter -> dedup -> split -> BPE.

One declarative INI config drives the whole run, and one top-level seed
feeds every randomized stage through named sub-seeds, so a build is fully
reproducible: identical inputs and config give byte-identical outputs.
Outputs are committed through core.staged_outputs: nothing replaces a
previous build until every file is written, and then the files are moved
into place in a fixed order with stats.jsonl, the mark of a complete set,
last. A failed run never clobbers a previous build.

Persisted statistics are deterministic counters only (wall time goes to the
log, never into the report), and every stage satisfies the conservation
rule: lines in = lines out + rejects + duplicates dropped.
"""

from __future__ import annotations

import configparser
import json
import os
import shutil
import sys
import tempfile
import time
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate, pairwise
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .bpe import TokenizerConfig, learn_bpe, save_model
from .core import CorpusError, decoded_lines, staged_outputs
from .dedup import dedup_key
from .filters import FilterConfig, apply_filters
from .ingest import (
    SKIP_KINDS,
    Side,
    extract_bitext_side,
    read_paired_bitext,
    read_plain_corpus,
    read_tsv_bitext,
)
from .split import SplitConfig, SplitUnit, derive_subseed, split_corpus

SOURCE_FORMATS = ("plain", "tsv", "paired")


class PipelineError(CorpusError):
    """A stage failure with enough context to locate the offending input."""

    def __init__(self, stage: str, detail: str, source_id: str = ""):
        self.stage = stage
        self.source_id = source_id
        where = f" (source '{source_id}')" if source_id else ""
        super().__init__(f"[{stage}]{where} {detail}")


@dataclass
class SourceSpec:
    source_id: str
    path: Path
    format: str = "plain"
    side: Side = Side.TARGET
    path2: Path | None = None  # second file of a paired bitext


@dataclass
class PipelineConfig:
    sources: list[SourceSpec]
    output_dir: Path
    seed: int = 0
    filter_cfg: FilterConfig = field(default_factory=FilterConfig)
    split_cfg: SplitConfig | None = None
    tokenizer_cfg: TokenizerConfig | None = None


@dataclass
class StageStats:
    stage: str
    source_id: str
    lines_in: int = 0
    lines_out: int = 0
    rejects: dict[str, int] = field(default_factory=dict)
    duplicates_dropped: int = 0
    bytes_in: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def conservation_error(self) -> str | None:
        accounted = self.lines_out + sum(self.rejects.values()) + self.duplicates_dropped
        if self.lines_in != accounted:
            return (
                f"stage '{self.stage}' source '{self.source_id}': "
                f"lines_in={self.lines_in} but out+rejects+dropped={accounted}"
            )
        return None

    def to_record(self) -> dict:
        rec = {
            "stage": self.stage,
            "source_id": self.source_id,
            "lines_in": self.lines_in,
            "lines_out": self.lines_out,
            "rejects": dict(sorted(self.rejects.items())),
            "duplicates_dropped": self.duplicates_dropped,
            "bytes_in": self.bytes_in,
        }
        if self.extra:
            rec["extra"] = dict(sorted(self.extra.items()))
        return rec


@dataclass
class PipelineStats:
    stages: list[StageStats] = field(default_factory=list)

    def conservation_errors(self) -> list[str]:
        return [e for e in map(StageStats.conservation_error, self.stages) if e]

    def total(self, stage: str, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.stages if s.stage == stage)


# ---------------------------------------------------------------------------
# Config document

def _words(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# Every option each section kind accepts, with the function that converts
# its text. The names are the fields of the config dataclass the section
# builds, so a section's converted options are that dataclass's arguments.
_OPTIONS: dict[str, dict[str, Callable[[str], Any]]] = {
    "pipeline": {"output_dir": Path, "seed": int},
    "filter": {"nonlatin_max_ratio": float, "min_tokens": int, "max_tokens": int,
               "punct_run_max": int, "awl_min": float, "awl_max": float, "html_patterns": _words},
    "split": {"ratio": float, "unit": SplitUnit},
    "tokenizer": {"vocab_size": int, "character_coverage": float, "special_tokens": _words},
    "source": {"path": Path, "path2": Path, "format": str, "side": Side},
}


def _convert(kind: str, options: Mapping[str, str], section: str) -> dict[str, Any]:
    """Convert one section's option text through _OPTIONS, rejecting unknown
    options and bad values with messages that name the section."""
    table = _OPTIONS[kind]
    out = {}
    for key, text in options.items():
        if key not in table:
            raise ValueError(f"unknown {kind} option '{key}' in [{section}]")
        try:
            out[key] = table[key](text)
        except ValueError as e:
            raise ValueError(f"bad value for {kind} option '{key}' in [{section}]: {e}") from None
    return out


def load_config(path: Path | str) -> PipelineConfig:
    """Read the build config document. See README for the full schema."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep case of keys and values
    try:
        with open(path, "rb") as f:
            parser.read_file((line for _, line in decoded_lines(f, str(path))), source=str(path))
    except configparser.Error as e:
        # the message carries file and line; its line breaks become spaces
        raise ValueError(" ".join(part.strip() for part in str(e).split("\n"))) from None

    if parser.defaults():  # [DEFAULT] options would leak into every section
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    cfg = PipelineConfig(sources=[], output_dir=Path("build"))
    for section in parser.sections():
        kind, _, source_id = section.partition(".")
        if kind not in _OPTIONS or (kind == "source") != bool(source_id):
            raise ValueError(f"{path}: unknown section [{section}]")
        try:
            options = _convert(kind, parser[section], section)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        if kind == "pipeline":
            cfg = replace(cfg, **options)
        elif kind == "filter":
            cfg.filter_cfg = FilterConfig(**options)
        elif kind == "split":
            # the seed is replaced by a named sub-seed at run time
            cfg.split_cfg = SplitConfig(**{"ratio": 0.5, **options}, seed=0)
        elif kind == "tokenizer":
            cfg.tokenizer_cfg = TokenizerConfig(**options)
        elif "path" not in options:
            raise ValueError(f"{path}: [{section}] has no path")
        else:
            cfg.sources.append(SourceSpec(source_id, **options))
    return cfg


def validate_config(cfg: PipelineConfig) -> list[str]:
    """Every invariant violation in the config; an empty list means runnable."""
    problems: list[str] = []

    seen: dict[str, Path] = {}
    for spec in cfg.sources:
        if spec.source_id in seen:
            problems.append(
                f"duplicate source_id '{spec.source_id}' used by "
                f"{seen[spec.source_id]} and {spec.path}"
            )
        else:
            seen[spec.source_id] = spec.path
        if spec.format not in SOURCE_FORMATS:
            problems.append(f"source '{spec.source_id}': unknown format '{spec.format}'")
        if not Path(spec.path).exists():
            problems.append(f"source '{spec.source_id}': path does not exist: {spec.path}")
        if spec.format == "paired":
            if spec.path2 is None:
                problems.append(f"source '{spec.source_id}': paired format needs path2")
            elif not Path(spec.path2).exists():
                problems.append(f"source '{spec.source_id}': path2 does not exist: {spec.path2}")

    probe = Path(cfg.output_dir)
    while not (probe.exists() or probe.is_symlink()) and probe.parent != probe:
        probe = probe.parent
    if not probe.is_dir():
        problems.append(f"output_dir is not a directory: {cfg.output_dir}")
    elif not os.access(probe, os.W_OK):
        problems.append(f"output_dir is not writable: {cfg.output_dir}")

    problems.extend(cfg.filter_cfg.validate())
    if cfg.split_cfg is not None:
        problems.extend(cfg.split_cfg.validate())
    if cfg.tokenizer_cfg is not None:
        problems.extend(cfg.tokenizer_cfg.validate())
    return problems


# ---------------------------------------------------------------------------
# Execution

def _source_records(spec: SourceSpec, counts: Counter) -> Iterator[tuple[str, int]]:
    """(text, line_no) per line the source's reader keeps; counts is complete once it is drained."""
    if spec.format == "plain":
        with open(spec.path, "rb") as f:
            yield from read_plain_corpus(f, spec.source_id, counts)
    elif spec.format == "tsv":
        with open(spec.path, "rb") as f:
            pairs = read_tsv_bitext(f, spec.source_id, counts)
            yield from extract_bitext_side(pairs, spec.side, spec.source_id, counts)
    else:  # paired: validate_config refuses any other format
        with open(spec.path, "rb") as src, open(spec.path2, "rb") as tgt:
            pairs = read_paired_bitext(src, tgt, spec.source_id, counts)
            yield from extract_bitext_side(pairs, spec.side, spec.source_id, counts)


def _ingest_filter_dedup(cfg: PipelineConfig, rejects_path: str, corpus_path: str,
                         stats: PipelineStats) -> dict[str, array]:
    """Stream each source, in config order, through the filters and one
    keep-first dedup shared by all sources. Filter rejects go to rejects.tsv
    and survivors to corpus.txt; return each source's kept line numbers."""
    seen: set[bytes] = set()
    kept: dict[str, array] = {}
    dedup_stats: list[StageStats] = []
    with open(rejects_path, "w", encoding="utf-8", newline="\n") as rejects_file, \
            open(corpus_path, "w", encoding="utf-8", newline="\n") as corpus_file:
        for spec in cfg.sources:
            counts: Counter = Counter()
            filter_rejects: Counter = Counter()
            line_nos = kept[spec.source_id] = array("Q")
            n_records = n_passed = 0
            # Per-line names bound once per source. apply_filters and
            # dedup_key are read from the module here, at call time, so a
            # wrapper installed after import still sees every line.
            filter_cfg, filter_line, key_of = cfg.filter_cfg, apply_filters, dedup_key
            seen_add, write_kept, add_line_no = seen.add, corpus_file.write, line_nos.append
            try:
                for text, line_no in _source_records(spec, counts):
                    n_records += 1
                    verdict = filter_line(text, filter_cfg)
                    if not verdict.passed:
                        filter_rejects[verdict.reason.value] += 1
                        rejects_file.write(f"{verdict.reason.value}\t{text}\n")
                        continue
                    n_passed += 1
                    key = key_of(text)
                    if key not in seen:
                        seen_add(key)
                        write_kept(text + "\n")
                        add_line_no(line_no)
            except (CorpusError, OSError, ValueError) as e:
                raise PipelineError("ingest", str(e), spec.source_id) from e

            bytes_in = sum(os.stat(p).st_size for p in (spec.path, spec.path2) if p is not None)
            ingest_rejects = {name: counts[key] for key, name in SKIP_KINDS.items() if counts[key]}
            stats.stages.append(StageStats("ingest", spec.source_id, lines_in=counts["lines"],
                                           lines_out=n_records, rejects=ingest_rejects, bytes_in=bytes_in))
            stats.stages.append(StageStats("filter", spec.source_id, lines_in=n_records,
                                           lines_out=n_passed, rejects=dict(filter_rejects)))
            dedup_stats.append(StageStats("dedup", spec.source_id, lines_in=n_passed, lines_out=len(line_nos),
                                          duplicates_dropped=n_passed - len(line_nos)))
    stats.stages.extend(dedup_stats)
    return kept


def _split(cfg: PipelineConfig, kept: dict[str, array], corpus_path: str, path_a: str, path_b: str,
           stats: PipelineStats) -> int:
    """Route each line of corpus.txt to path_a or path_b; return the number of side-A lines."""
    side_a = split_corpus(kept, replace(cfg.split_cfg, seed=derive_subseed(cfg.seed, "split")))[0]
    bounds = list(accumulate(map(len, kept.values()), initial=0))  # each source's start, then the end
    # Side A is ascending positions in the sources' lines laid end to end,
    # which is corpus.txt's line order. The build wrote that file, so its
    # lines are routed as they are.
    next_a = iter(side_a)
    want = next(next_a, None)
    i = -1
    with open(corpus_path, "rb") as corpus, open(path_a, "wb") as out_a, open(path_b, "wb") as out_b:
        for i, line in enumerate(corpus):
            if i == want:
                out_a.write(line)
                want = next(next_a, None)
            else:
                out_b.write(line)
    if i + 1 != bounds[-1]:
        raise PipelineError("split", f"{corpus_path} reads back {i + 1} lines, not the {bounds[-1]} the build wrote")
    for spec, (start, end) in zip(cfg.sources, pairwise(bounds), strict=True):
        n, n_a = end - start, bisect_left(side_a, end) - bisect_left(side_a, start)
        stats.stages.append(StageStats("split", spec.source_id, lines_in=n, lines_out=n,
                                       extra={"side_a": n_a, "side_b": n - n_a}))
    return len(side_a)


def _train_bpe(cfg: PipelineConfig, corpus_path: str, n_lines: int, merges_path: str, vocab_path: str,
               stats: PipelineStats) -> None:
    """Train on the n_lines lines of the staged file corpus_path."""
    try:
        with open(corpus_path, "rb") as corpus:
            model = learn_bpe((line for _, line in decoded_lines(corpus, corpus_path)), cfg.tokenizer_cfg)
    except ValueError as e:
        raise PipelineError("train-bpe", str(e)) from e
    save_model(model, merges_path, vocab_path)
    stats.stages.append(StageStats("train-bpe", "*", lines_in=n_lines, lines_out=n_lines,
                                   extra={"vocab_size": len(model.vocab), "merges": len(model.merges)}))


def _private(stage: Callable[[str], str], path: str, scratch: str) -> tuple[str, str]:
    """Return (where the build writes path's content and reads it back, where
    that content goes). Both are path's staged file, unless stage() writes
    path in place: a symlink to /dev/null or a FIFO gives back nothing of
    what went in, so the content goes to a private file in scratch, and
    _publish copies it to path."""
    out = stage(path)
    return (os.path.join(scratch, os.path.basename(path)) if out == path else out), out


def _publish(written: str, out: str) -> None:
    if written != out:
        with open(written, "rb") as src, open(out, "wb") as dst:
            shutil.copyfileobj(src, dst)


def run_pipeline(cfg: PipelineConfig, log=sys.stderr) -> PipelineStats:
    """Run the full build and write corpus, splits, tokenizer, and stats.

    Re-running with identical inputs and config reproduces every output file
    byte for byte. The files are committed in the order rejects.tsv,
    corpus.txt, split_a.txt, split_b.txt, bpe.merges.txt, bpe.vocab.txt,
    stats.txt, stats.jsonl; a run that fails before the commit replaces none.
    Memory holds each kept line's provenance, not its text: the text goes
    to the staged corpus.txt, and the split and the tokenizer read it back
    from files the build owns, even where an output is written in place.
    """
    problems = validate_config(cfg)
    if problems:
        raise PipelineError("config", "; ".join(problems))

    t0 = time.monotonic()
    stats = PipelineStats()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with staged_outputs() as stage, tempfile.TemporaryDirectory(prefix="corpuskit-") as scratch:
        rejects_path = stage(out_dir / "rejects.tsv")
        corpus_path, corpus_out = _private(stage, str(out_dir / "corpus.txt"), scratch)
        kept = _ingest_filter_dedup(cfg, rejects_path, corpus_path, stats)
        _publish(corpus_path, corpus_out)
        train_path, n_train = corpus_path, sum(map(len, kept.values()))
        if cfg.split_cfg is not None:
            train_path, split_a_out = _private(stage, str(out_dir / "split_a.txt"), scratch)
            n_train = _split(cfg, kept, corpus_path, train_path, stage(out_dir / "split_b.txt"), stats)
            _publish(train_path, split_a_out)
        del kept  # training needs no provenance
        if cfg.tokenizer_cfg is not None:
            _train_bpe(cfg, train_path, n_train, stage(out_dir / "bpe.merges.txt"),
                       stage(out_dir / "bpe.vocab.txt"), stats)

        jsonl, table = report_stats(stats)
        Path(stage(out_dir / "stats.txt")).write_text(table, encoding="utf-8")
        Path(stage(out_dir / "stats.jsonl")).write_text(jsonl, encoding="utf-8")

    if log is not None:
        print(f"build finished in {time.monotonic() - t0:.1f}s -> {out_dir}", file=log)
    return stats


# ---------------------------------------------------------------------------
# Reporting

def stats_from_jsonl(text: str) -> PipelineStats:
    """Read a stats.jsonl report back; a malformed line is a ValueError naming it."""
    stats = PipelineStats()
    # split on \n only: records are written with ensure_ascii=False, so a
    # source id may hold U+2028 or U+0085, which splitlines() breaks on
    for ln, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            stage = StageStats(**json.loads(line))
        except (TypeError, ValueError) as e:
            raise ValueError(f"line {ln}: {e}") from None
        problem = _field_type_error(stage)
        if problem:
            raise ValueError(f"line {ln}: {problem}")
        stats.stages.append(stage)
    return stats


def _field_type_error(stage: StageStats) -> str | None:
    # JSON decodes to exact types, so `type(v) is int` also refuses true/false.
    for f in fields(StageStats):
        value = getattr(stage, f.name)
        if f.name in ("stage", "source_id"):
            ok, want = type(value) is str, "a string"
        elif f.name in ("rejects", "extra"):
            ok, want = type(value) is dict and all(type(n) is int for n in value.values()), "an object of integers"
        else:
            ok, want = type(value) is int, "an integer"
        if not ok:
            return f"'{f.name}' must be {want}, got {value!r}"
    return None


def report_stats(stats: PipelineStats) -> tuple[str, str]:
    """Render (machine-readable JSON lines, human summary table).

    Refuses to render stats that violate the conservation rule; a broken
    counter is a pipeline bug, not something to paper over in a report.
    """
    errors = stats.conservation_errors()
    if errors:
        raise ValueError("inconsistent stats: " + "; ".join(errors))

    jsonl = "".join(
        json.dumps(s.to_record(), sort_keys=True, ensure_ascii=False) + "\n"
        for s in stats.stages
    )

    rows = [["stage", "source", "in", "out", "dropped", "detail"]]
    for s in stats.stages:
        detail = " ".join(f"{k}={v}" for k, v in [*sorted(s.rejects.items()), *sorted(s.extra.items())])
        rows.append([s.stage, s.source_id, str(s.lines_in), str(s.lines_out), str(s.duplicates_dropped), detail])
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]

    total_in = stats.total("ingest", "lines_in")
    total_kept = stats.total("dedup", "lines_out")
    pct = (100.0 * total_kept / total_in) if total_in else 0.0
    lines.append("")
    lines.append(f"kept {total_kept} / {total_in} ({pct:.1f}%)")
    return jsonl, "\n".join(lines) + "\n"
