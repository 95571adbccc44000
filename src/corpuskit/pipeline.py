"""End-to-end corpus build: ingest -> filter -> dedup -> split -> BPE.

One declarative INI config drives the whole run, and one top-level seed
feeds every randomized stage through named sub-seeds, so a build is fully
reproducible: identical inputs and config give byte-identical outputs.
Outputs are staged in a temporary directory and moved into place only on
success; a failed run never clobbers a previous build.

Persisted statistics are deterministic counters only (wall time goes to the
log, never into the report), and every stage satisfies the conservation
rule: lines in = lines out + rejects + duplicates dropped.
"""

from __future__ import annotations

import configparser
import json
import os
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .bpe import TokenizerConfig, learn_bpe, save_model
from .core import CorpusError, SentenceRecord
from .dedup import dedup_key
from .filters import FilterConfig, apply_filters
from .ingest import (
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
        errors = []
        for s in self.stages:
            e = s.conservation_error()
            if e:
                errors.append(e)
        return errors

    def total(self, stage: str, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.stages if s.stage == stage)


# ---------------------------------------------------------------------------
# Config document

def _parser() -> configparser.ConfigParser:
    p = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    p.optionxform = str  # keep case of keys and values
    return p


_FILTER_FLOAT_KEYS = ("nonlatin_max_ratio", "awl_min", "awl_max")
_FILTER_INT_KEYS = ("min_tokens", "max_tokens", "punct_run_max")


def filter_config_from_mapping(mapping: Mapping[str, str]) -> FilterConfig:
    """Build a FilterConfig from flat key/value text, rejecting unknown keys."""
    kwargs = {}
    for key, value in mapping.items():
        if key in _FILTER_FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key in _FILTER_INT_KEYS:
            kwargs[key] = int(value)
        elif key == "html_patterns":
            kwargs[key] = tuple(value.split())
        else:
            raise ValueError(f"unknown filter option '{key}'")
    return FilterConfig(**kwargs)


def parse_flat_config(text: str) -> dict[str, str]:
    """key = value lines; blank lines and #-comments are ignored."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def load_config(path: Path | str) -> PipelineConfig:
    """Read the build config document. See README for the full schema."""
    parser = _parser()
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f, source=str(path))
    except configparser.Error as e:
        raise ValueError(str(e)) from None  # message carries file and line

    if "pipeline" not in parser:
        raise ValueError(f"{path}: missing [pipeline] section")
    pipe = parser["pipeline"]
    output_dir = Path(pipe.get("output_dir", "build"))
    seed = int(pipe.get("seed", "0"))

    filter_cfg = FilterConfig()
    if "filter" in parser:
        filter_cfg = filter_config_from_mapping(dict(parser["filter"]))

    split_cfg = None
    if "split" in parser:
        sec = parser["split"]
        split_cfg = SplitConfig(
            ratio=float(sec.get("ratio", "0.5")),
            seed=0,  # replaced by a named sub-seed at run time
            unit=SplitUnit(sec.get("unit", "document")),
        )

    tokenizer_cfg = None
    if "tokenizer" in parser:
        sec = parser["tokenizer"]
        kwargs: dict = {}
        if "vocab_size" in sec:
            kwargs["vocab_size"] = int(sec["vocab_size"])
        if "character_coverage" in sec:
            kwargs["character_coverage"] = float(sec["character_coverage"])
        if "special_tokens" in sec:
            kwargs["special_tokens"] = tuple(sec["special_tokens"].split())
        tokenizer_cfg = TokenizerConfig(**kwargs)

    sources = []
    for section in parser.sections():
        if not section.startswith("source."):
            continue
        sec = parser[section]
        source_id = section[len("source."):]
        sources.append(
            SourceSpec(
                source_id=source_id,
                path=Path(sec["path"]),
                format=sec.get("format", "plain"),
                side=Side(sec.get("side", "target")),
                path2=Path(sec["path2"]) if "path2" in sec else None,
            )
        )

    return PipelineConfig(
        sources=sources,
        output_dir=output_dir,
        seed=seed,
        filter_cfg=filter_cfg,
        split_cfg=split_cfg,
        tokenizer_cfg=tokenizer_cfg,
    )


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
    while not probe.exists() and probe.parent != probe:
        probe = probe.parent
    if not os.access(probe, os.W_OK):
        problems.append(f"output_dir is not writable: {cfg.output_dir}")

    problems.extend(cfg.filter_cfg.validate())
    if cfg.split_cfg is not None:
        problems.extend(cfg.split_cfg.validate())
    if cfg.tokenizer_cfg is not None:
        problems.extend(cfg.tokenizer_cfg.validate())
    return problems


# ---------------------------------------------------------------------------
# Execution

def _source_records(spec: SourceSpec, counts: Counter) -> Iterator[SentenceRecord]:
    if spec.format == "plain":
        with open(spec.path, "rb") as f:
            yield from read_plain_corpus(f, spec.source_id, counts)
    elif spec.format == "tsv":
        with open(spec.path, "rb") as f:
            pairs = read_tsv_bitext(f, spec.source_id, counts)
            yield from extract_bitext_side(pairs, spec.side, spec.source_id, counts)
    elif spec.format == "paired":
        with open(spec.path, "rb") as src, open(spec.path2, "rb") as tgt:
            pairs = read_paired_bitext(src, tgt, spec.source_id, counts)
            yield from extract_bitext_side(pairs, spec.side, spec.source_id, counts)
    else:
        raise ValueError(f"unknown source format '{spec.format}'")


_INGEST_REJECT_KEYS = {"empty": "Empty", "malformed": "Malformed", "empty_side": "EmptySide"}


def _write_lines(path: Path, records: Iterable[SentenceRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(rec.text + "\n")


def _ingest_filter_dedup(cfg: PipelineConfig, tmp_dir: Path, stats: PipelineStats) -> list[SentenceRecord]:
    """Stream each source, in config order, through the filters and one
    keep-first dedup shared by all sources; filter rejects go to rejects.tsv."""
    seen: set[bytes] = set()
    kept: list[SentenceRecord] = []
    dedup_stats: list[StageStats] = []
    with open(tmp_dir / "rejects.tsv", "w", encoding="utf-8", newline="\n") as rejects_file:
        for spec in cfg.sources:
            counts: Counter = Counter()
            filter_rejects: Counter = Counter()
            n_records = n_passed = n_kept = 0
            try:
                for rec in _source_records(spec, counts):
                    n_records += 1
                    verdict = apply_filters(rec.text, cfg.filter_cfg)
                    if not verdict.passed:
                        filter_rejects[verdict.reason.value] += 1
                        rejects_file.write(f"{verdict.reason.value}\t{rec.text}\n")
                        continue
                    n_passed += 1
                    key = dedup_key(rec.text)
                    if key not in seen:
                        seen.add(key)
                        kept.append(rec)
                        n_kept += 1
            except (CorpusError, OSError) as e:
                raise PipelineError("ingest", str(e), spec.source_id) from e

            bytes_in = Path(spec.path).stat().st_size
            if spec.path2 is not None:
                bytes_in += Path(spec.path2).stat().st_size
            ingest_rejects = {name: counts[key] for key, name in _INGEST_REJECT_KEYS.items() if counts[key]}
            stats.stages.append(StageStats("ingest", spec.source_id, lines_in=counts["lines"],
                                           lines_out=n_records, rejects=ingest_rejects, bytes_in=bytes_in))
            stats.stages.append(StageStats("filter", spec.source_id, lines_in=n_records,
                                           lines_out=n_passed, rejects=dict(filter_rejects)))
            dedup_stats.append(StageStats("dedup", spec.source_id, lines_in=n_passed, lines_out=n_kept,
                                          duplicates_dropped=n_passed - n_kept))
    stats.stages.extend(dedup_stats)
    return kept


def _split(cfg: PipelineConfig, kept: list[SentenceRecord], tmp_dir: Path,
           stats: PipelineStats) -> list[SentenceRecord]:
    """Write split_a.txt and split_b.txt; return side A, the pretraining side."""
    side_a, side_b = split_corpus(kept, replace(cfg.split_cfg, seed=derive_subseed(cfg.seed, "split")))
    _write_lines(tmp_dir / "split_a.txt", side_a)
    _write_lines(tmp_dir / "split_b.txt", side_b)
    per_source_a = Counter(r.source_id for r in side_a)
    per_source_b = Counter(r.source_id for r in side_b)
    for spec in cfg.sources:
        n_a, n_b = per_source_a[spec.source_id], per_source_b[spec.source_id]
        stats.stages.append(StageStats("split", spec.source_id, lines_in=n_a + n_b, lines_out=n_a + n_b,
                                       extra={"side_a": n_a, "side_b": n_b}))
    return side_a


def _train_bpe(cfg: PipelineConfig, corpus: list[SentenceRecord], tmp_dir: Path,
               stats: PipelineStats) -> None:
    try:
        model = learn_bpe((r.text for r in corpus), cfg.tokenizer_cfg)
    except ValueError as e:
        raise PipelineError("train-bpe", str(e)) from e
    save_model(model, tmp_dir / "bpe.merges.txt", tmp_dir / "bpe.vocab.txt")
    stats.stages.append(StageStats("train-bpe", "*", lines_in=len(corpus), lines_out=len(corpus),
                                   extra={"vocab_size": len(model.vocab), "merges": len(model.merges)}))


def run_pipeline(cfg: PipelineConfig, log=sys.stderr) -> PipelineStats:
    """Run the full build and write corpus, splits, tokenizer, and stats.

    Re-running with identical inputs and config reproduces every output file
    byte for byte. On failure, previous outputs are left untouched.
    """
    problems = validate_config(cfg)
    if problems:
        raise PipelineError("config", "; ".join(problems))

    t0 = time.monotonic()
    stats = PipelineStats()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A staging directory of its own, so concurrent builds never share files.
    with tempfile.TemporaryDirectory(prefix=".build-", dir=out_dir) as tmp:
        tmp_dir = Path(tmp)
        kept = _ingest_filter_dedup(cfg, tmp_dir, stats)
        _write_lines(tmp_dir / "corpus.txt", kept)
        bpe_corpus = kept
        if cfg.split_cfg is not None:
            bpe_corpus = _split(cfg, kept, tmp_dir, stats)
        if cfg.tokenizer_cfg is not None:
            _train_bpe(cfg, bpe_corpus, tmp_dir, stats)

        jsonl, table = report_stats(stats)
        (tmp_dir / "stats.jsonl").write_text(jsonl, encoding="utf-8")
        (tmp_dir / "stats.txt").write_text(table, encoding="utf-8")
        for name in os.listdir(tmp_dir):
            os.replace(tmp_dir / name, out_dir / name)

    if log is not None:
        print(f"build finished in {time.monotonic() - t0:.1f}s -> {out_dir}", file=log)
    return stats


# ---------------------------------------------------------------------------
# Reporting

def stats_from_jsonl(text: str) -> PipelineStats:
    stats = PipelineStats()
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        stats.stages.append(
            StageStats(
                stage=rec["stage"],
                source_id=rec["source_id"],
                lines_in=rec["lines_in"],
                lines_out=rec["lines_out"],
                rejects=rec.get("rejects", {}),
                duplicates_dropped=rec.get("duplicates_dropped", 0),
                bytes_in=rec.get("bytes_in", 0),
                extra=rec.get("extra", {}),
            )
        )
    return stats


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

    headers = ["stage", "source", "in", "out", "dropped", "detail"]
    rows = []
    for s in stats.stages:
        detail_parts = [f"{k}={v}" for k, v in sorted(s.rejects.items())]
        detail_parts += [f"{k}={v}" for k, v in sorted(s.extra.items())]
        rows.append(
            [s.stage, s.source_id, s.lines_in, s.lines_out, s.duplicates_dropped,
             " ".join(detail_parts)]
        )
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for r in rows:
        lines.append("  ".join(str(r[i]).ljust(widths[i]) for i in range(len(headers))))

    total_in = stats.total("ingest", "lines_in")
    total_kept = stats.total("dedup", "lines_out")
    pct = (100.0 * total_kept / total_in) if total_in else 0.0
    lines.append("")
    lines.append(f"kept {total_kept} / {total_in} ({pct:.1f}%)")
    return jsonl, "\n".join(lines) + "\n"
