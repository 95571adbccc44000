"""Tracing from outside the program: wrap the public functions at the names
`corpuskit.pipeline` and `corpuskit.cli` call, and time every call.

A span is one (layer, name, source, parent) key. Per-line calls into the
same key aggregate into that one span with a call count, so tracing a
million lines costs a few dozen spans, not a million. A streaming reader is
wrapped so that each generator next() is one call. Self time is a span's
time minus the time of the spans nested inside it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter

_clock = time.perf_counter


class TraceError(RuntimeError):
    """A wrapped entry point is missing or was never called."""


class Span:
    __slots__ = ("layer", "name", "source", "parent", "start", "end", "total", "self_s", "calls")

    def __init__(self, layer, name, source, parent, start):
        self.layer, self.name, self.source, self.parent = layer, name, source, parent
        self.start = self.end = start
        self.total = self.self_s = 0.0
        self.calls = 0


class Tracer:
    def __init__(self):
        self.spans: dict[tuple, Span] = {}
        self.stack: list[list] = []  # [key, start, time of nested spans]
        self.command = "*"  # current CLI subcommand, "*" inside run_pipeline
        self.source = "*"  # current ingest source; filters inherit it
        self.counts: Counter = Counter()
        self.ingest_counters: dict[int, Counter] = {}
        self.ingest_files: set[str] = set()
        self.models: list = []

    def enter(self, layer: str, name: str) -> None:
        source = self.source if layer in ("ingest", "filters") else self.command
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([(layer, name, source, parent), _clock(), 0.0])

    def exit(self) -> None:
        end = _clock()
        key, start, nested = self.stack.pop()
        span = self.spans.get(key)
        if span is None:
            span = self.spans[key] = Span(*key, start)
        elapsed = end - start
        span.end = end
        span.total += elapsed
        span.self_s += elapsed - nested
        span.calls += 1
        if self.stack:
            self.stack[-1][2] += elapsed

    def records(self) -> list[dict]:
        """Spans in start order, each naming its parent by index."""
        ordered = sorted(self.spans.items(), key=lambda kv: kv[1].start)
        index = {key: i for i, (key, _) in enumerate(ordered)}
        return [
            {"layer": s.layer, "name": s.name, "source": s.source,
             "parent": index.get(s.parent), "start": s.start, "end": s.end,
             "total_s": s.total, "self_s": s.self_s, "calls": s.calls}
            for _, s in ordered
        ]


def _wrap_call(tracer: Tracer, layer: str, name: str, fn, post=None):
    def traced(*args, **kwargs):
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if post is not None:
            post(tracer, args, result)
        return result
    return traced


def _wrap_reader(tracer: Tracer, name: str, fn):
    """A streaming reader: note its source, counters and files, then time
    each next() of the generator it returns."""
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        if "source_id" in bound:
            tracer.source = os.path.basename(str(bound["source_id"]))
        counts = bound.get("counts")
        if counts is not None:
            tracer.ingest_counters[id(counts)] = counts
        for param, value in bound.items():
            path = value.name if hasattr(value, "read") else value if param == "path" else None
            if path is not None:
                tracer.ingest_files.add(os.path.abspath(path))
        gen = fn(*args, **kwargs)

        def timed():
            while True:
                tracer.enter("ingest", name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item
        return timed()
    return traced


def _post_filters(tracer, args, verdict):
    tracer.counts["filters.lines"] += 1
    tracer.counts["filters.kept"] += verdict.passed
    tracer.counts["filters.nonascii"] += not args[0].isascii()


def _post_split(tracer, args, sides):
    tracer.counts["split.units"] += len(sides[0]) + len(sides[1])


def _post_learn(tracer, args, model):
    tracer.counts["bpe.learn.merges"] += len(model.merges)


def _post_load(tracer, args, model):
    tracer.models.append(model)


def _post_encode(tracer, args, ids):
    tracer.counts["bpe.encode.ids"] += len(ids)


def _post_tweet(tracer, args, cleaned):
    tracer.counts["tweets.changed"] += cleaned != args[0]


def _post_nli(tracer, args, result):
    tracer.counts["nli.pairs"] += len(result.pairs)
    tracer.counts["nli.entailment"] += result.n_entailment
    tracer.counts["nli.unfilled"] += result.contradictions_unfilled


def _post_dedup_files(tracer, args, summary):
    tracer.counts["dedup.external.read"] += summary.read


_READERS = ("read_plain_corpus", "read_tsv_bitext", "read_paired_bitext", "extract_bitext_side")

# (module, attribute, layer, post-call hook). Every name here must exist, or
# the traced run stops: the benchmark has to follow a refactor explicitly.
_CALLS = (
    ("pipeline", "run_pipeline", "pipeline", None),
    ("pipeline", "apply_filters", "filters", _post_filters),
    ("pipeline", "dedup_key", "dedup", None),
    ("pipeline", "split_corpus", "split", _post_split),
    ("pipeline", "learn_bpe", "bpe.learn", _post_learn),
    ("pipeline", "save_model", "bpe.save", None),
    ("cli", "main", "cli", None),
    ("cli", "apply_filters", "filters", _post_filters),
    ("cli", "split_corpus", "split", _post_split),
    ("cli", "split_articles", "split", _post_split),
    ("cli", "encode_label_flags", "labels", None),
    ("dedup", "dedup_files", "dedup.external", _post_dedup_files),
    ("nli", "make_nli_pairs", "nli", _post_nli),
    ("tweets", "preprocess_tweet", "tweets", _post_tweet),
    ("bpe", "learn_bpe", "bpe.learn", _post_learn),
    ("bpe", "save_model", "bpe.save", None),
    ("bpe", "load_model", "bpe.load", _post_load),
    ("bpe", "encode", "bpe.encode", _post_encode),
)
_GENERATORS = tuple(("pipeline", n) for n in _READERS) + tuple(("cli", n) for n in _READERS) + (
    ("ingest", "read_articles_file"),  # cli imports it at call time
)
FILTER_NAMES = {
    "filter_non_latin": "non_latin",
    "filter_length": "length",
    "filter_punct_run": "punct_run",
    "filter_avg_word_len": "avg_word_len",
    "filter_html": "html",
}

# Spans each workload must produce; a missing one means the trace went blind.
EXPECTED = {
    "crawl_build": {"pipeline", "ingest", "filters", "dedup", "split"},
    "full_build": {"pipeline", "ingest", "filters", "dedup", "split", "bpe.learn", "bpe.save"},
    "prep_cli": {"cli", "ingest", "filters", "dedup.external", "split", "nli", "tweets",
                 "labels", "bpe.load", "bpe.encode"},
}


def install() -> Tracer:
    """Patch every entry point in place; raise TraceError if one is gone."""
    tracer = Tracer()
    modules = {m: importlib.import_module(f"corpuskit.{m}")
               for m in ("pipeline", "cli", "dedup", "nli", "tweets", "bpe", "ingest", "filters")}
    missing = [f"corpuskit.{m}.{a}" for m, a, *_ in _CALLS + _GENERATORS
               if not callable(getattr(modules[m], a, None))]
    chain = getattr(modules["filters"], "FILTER_CHAIN", ())
    names = [getattr(f, "__name__", "") for f in chain]
    if sorted(names) != sorted(FILTER_NAMES):
        missing.append(f"corpuskit.filters.FILTER_CHAIN (found {names})")
    if missing:
        raise TraceError("traced entry points no longer exist: " + ", ".join(missing))

    # Wrap each function object once, even where two modules share it.
    wrapped: dict[int, object] = {}
    for m, attr, layer, post in _CALLS:
        fn = getattr(modules[m], attr)
        if id(fn) not in wrapped:
            wrapped[id(fn)] = _wrap_call(tracer, layer, attr, fn, post)
        setattr(modules[m], attr, wrapped[id(fn)])
    for m, attr in _GENERATORS:
        fn = getattr(modules[m], attr)
        if id(fn) not in wrapped:
            wrapped[id(fn)] = _wrap_reader(tracer, attr, fn)
        setattr(modules[m], attr, wrapped[id(fn)])
    modules["filters"].FILTER_CHAIN = tuple(
        _wrap_call(tracer, "filters", FILTER_NAMES[f.__name__], f) for f in chain
    )

    main = modules["cli"].main

    def cli_main(argv=None):
        tracer.command = tracer.source = argv[0] if argv else "*"
        try:
            return main(argv)
        finally:
            tracer.command = tracer.source = "*"
    modules["cli"].main = cli_main
    return tracer


def check(tracer: Tracer, workload: str) -> None:
    """Raise TraceError if a layer the workload runs recorded no call."""
    seen = {s.layer for s in tracer.spans.values()}
    filters_seen = {s.name for s in tracer.spans.values() if s.layer == "filters"}
    missing = sorted(EXPECTED[workload] - seen)
    missing += [f"filters.{n}" for n in FILTER_NAMES.values() if n not in filters_seen]
    if missing:
        raise TraceError(f"{workload}: no span recorded for " + ", ".join(missing))


def summary(tracer: Tracer) -> dict:
    """Everything the parent needs to derive the per-layer metrics."""
    counters = tracer.ingest_counters.values()
    return {
        "spans": tracer.records(),
        "counts": dict(tracer.counts),
        "ingest_lines": sum(c["lines"] for c in counters),
        "ingest_skipped": sum(c["empty"] + c["malformed"] + c["empty_side"] for c in counters),
        "ingest_bytes": sum(os.path.getsize(p) for p in tracer.ingest_files),
        "cache_words": sum(len(getattr(m, "_word_cache", ())) for m in tracer.models),
    }
