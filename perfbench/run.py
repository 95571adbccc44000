"""corpuskit benchmark: one command, three workloads, closed loop.

    python3 perfbench/run.py --workload crawl_build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
command generates the workload's inputs from the seed in its own process,
then runs one operation at a time, each in a fresh single-threaded child
process, until the time is up. Every operation's outputs pass the
correctness gate and must have the same SHA-256 digests as the first one.
With --trace 1 one more operation runs traced after the measured ones, and
the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See README.md next to this file for the metric catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import gen
import spans

HERE = Path(__file__).resolve().parent
MIN_OPS = 3  # samples per run even when the time is up earlier
OP_TIMEOUT_S = 60

# Generated input bytes per workload, sized so that one operation takes
# about a second and a run collects a few dozen samples (see README.md).
WORKLOADS = {"crawl_build": 1_500_000, "full_build": 200_000, "prep_cli": 2_000_000}
E2E_UNITS = {"wall_s": "s", "input_mb_per_s": "MB/s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Generates one input set and runs operations on it in child processes."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path, corpuskit):
        self.root, self.workload, self.work = root, workload, work
        self.bpe, self.tweets, self.labels = corpuskit
        target = WORKLOADS[workload]
        if workload == "prep_cli":
            self.manifest = gen.make_prep(seed, work, target, self.bpe)
        else:
            self.manifest = gen.make_build(workload, seed, work, target)
        self.inputs = [Path(p) for p in self.manifest["inputs"]]
        self.input_bytes = sum(p.stat().st_size for p in self.inputs)
        self.input_digests = {p.name: _sha256(p) for p in self.inputs}  # also warms the page cache
        self.out = Path(self.manifest["out_dir"])
        self.gate_cache: dict[tuple, tuple] = {}

    def run(self, trace: bool) -> dict:
        """One operation; returns the child's result plus digests and gate problems."""
        shutil.rmtree(self.out, ignore_errors=True)
        if self.manifest["kind"] == "prep":
            self.out.mkdir(parents=True)
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        result_path.unlink(missing_ok=True)
        spec = dict(self.manifest, workload=self.workload, trace=trace, result=str(result_path))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # Bytecode caches may be written under src/ by the warm-up, so set-up
        # times a warm import, as for an installed package.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = str(self.root / "src")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.root, env=env, capture_output=True, timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return {"ok": False, "error": f"operation took over {OP_TIMEOUT_S}s"}
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {"ok": False, "error": f"child exited {proc.returncode} without a result"}
        if not result["ok"]:
            result["stderr"] = proc.stderr.decode("utf-8", "replace")[-2000:]
            return result
        result["digests"] = _digests(self.out) if self.out.is_dir() else {}
        key = tuple(sorted(result["digests"].items()))
        if key not in self.gate_cache:
            try:
                if self.manifest["kind"] == "prep":
                    self.gate_cache[key] = gate.check_prep(self.manifest, self.bpe, self.tweets, self.labels)
                else:
                    self.gate_cache[key] = gate.check_build(self.manifest, self.bpe)
            except Exception as e:  # malformed outputs fail the operation, not the benchmark
                problem = f"gate raised {type(e).__name__}: {e}"
                self.gate_cache[key] = ([(i, problem) for i in range(self.n_ops())], {})
        result["problems"], result["props"] = self.gate_cache[key]
        return result

    def n_ops(self) -> int:
        """Operations per run: one build, or one CLI subcommand per chain step."""
        return len(self.manifest.get("chain", [None]))

    def failed_ops(self, result: dict, reference: dict | None) -> set[int]:
        if not result["ok"]:
            return set(range(self.n_ops()))
        failed = {i for i, code in enumerate(result["codes"]) if code != 0}
        failed |= {i for i, _ in result["problems"]}
        if reference is not None and result["digests"] != reference:
            failed |= self._ops_writing(
                {n for n in set(result["digests"]) | set(reference)
                 if result["digests"].get(n) != reference.get(n)})
        return failed

    def _ops_writing(self, names: set[str]) -> set[int]:
        chain = self.manifest.get("chain")
        if chain is None:
            return {0}
        return {i for i, argv in enumerate(chain) for a in argv if Path(a).name in names} or {0}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _layer_metrics(workload: str, traced: dict, untraced_wall: float, props: dict,
                   input_mb: float, out_mb: float) -> dict[str, tuple[float, str]]:
    tr = traced["trace"]
    sp, counts = tr["spans"], tr["counts"]

    def self_s(layer: str) -> float:
        return sum(s["self_s"] for s in sp if s["layer"] == layer)

    def calls(layer: str, name: str) -> int:
        return sum(s["calls"] for s in sp if s["layer"] == layer and s["name"] == name)

    def total(layer: str, name: str) -> float:
        return sum(s["total_s"] for s in sp if s["layer"] == layer and s["name"] == name)

    def rate(n: float, t: float) -> float:
        return n / t if t > 0 else 0.0

    built = workload != "prep_cli"
    m: dict[str, tuple[float, str]] = {}
    t = self_s("filters")
    m["filters.self_s"] = (t, "s")
    m["filters.lines_per_s"] = (rate(counts.get("filters.lines", 0), t), "1/s")
    m["filters.keep_ratio"] = (rate(counts.get("filters.kept", 0), counts.get("filters.lines", 0)), "ratio")
    m["filters.nonascii_line_share"] = (
        rate(counts.get("filters.nonascii", 0), counts.get("filters.lines", 0)), "ratio")
    for name in spans.FILTER_NAMES.values():
        m[f"filters.{name}.lines_per_s"] = (rate(calls("filters", name), total("filters", name)), "1/s")
    t = self_s("ingest")
    m["ingest.self_s"] = (t, "s")
    m["ingest.lines"] = (tr["ingest_lines"], "count")
    m["ingest.mb_per_s"] = (rate(tr["ingest_bytes"] / 1e6, t), "MB/s")
    m["ingest.skip_ratio"] = (rate(tr["ingest_skipped"], tr["ingest_lines"]), "ratio")
    t = self_s("dedup")
    m["dedup.self_s"] = (t, "s")
    m["dedup.lines_per_s"] = (rate(calls("dedup", "dedup_key"), t), "1/s")
    m["dedup.unique_ratio"] = (1 - props.get("duplicate_share", 1.0), "ratio")
    t = self_s("dedup.external")
    m["dedup.external.self_s"] = (t, "s")
    m["dedup.external.lines_per_s"] = (rate(counts.get("dedup.external.read", 0), t), "1/s")
    t = self_s("split")
    m["split.self_s"] = (t, "s")
    m["split.units"] = (counts.get("split.units", 0), "count")
    m["split.units_per_s"] = (rate(counts.get("split.units", 0), t), "1/s")
    m["pipeline.self_s"] = (self_s("pipeline"), "s")
    m["pipeline.output_mb"] = (out_mb if built else 0.0, "MB")
    growth = traced["peak_rss_mb"] - traced["setup_rss_mb"]
    m["pipeline.rss_growth_mb_per_input_mb"] = (growth / input_mb if built else 0.0, "MB/MB")
    m["bpe.learn.self_s"] = (self_s("bpe.learn"), "s")
    m["bpe.learn.merges"] = (counts.get("bpe.learn.merges", 0), "count")
    m["bpe.learn.distinct_words"] = (props.get("bpe_distinct_words", 0), "count")
    m["bpe.save.self_s"] = (self_s("bpe.save"), "s")
    m["bpe.load.self_s"] = (self_s("bpe.load"), "s")
    t = self_s("bpe.encode")
    m["bpe.encode.self_s"] = (t, "s")
    m["bpe.encode.ids_per_s"] = (rate(counts.get("bpe.encode.ids", 0), t), "1/s")
    m["bpe.encode.distinct_word_share"] = (props.get("distinct_word_share", 0.0), "ratio")
    m["bpe.encode.cache_words"] = (tr["cache_words"], "count")
    t = self_s("tweets")
    n = calls("tweets", "preprocess_tweet")
    m["tweets.self_s"] = (t, "s")
    m["tweets.lines_per_s"] = (rate(n, t), "1/s")
    m["tweets.changed_ratio"] = (rate(counts.get("tweets.changed", 0), n), "ratio")
    t = self_s("nli")
    m["nli.self_s"] = (t, "s")
    m["nli.pairs_per_s"] = (rate(counts.get("nli.pairs", 0), t), "1/s")
    m["nli.unfilled_ratio"] = (rate(counts.get("nli.unfilled", 0), counts.get("nli.entailment", 0)), "ratio")
    t = self_s("labels")
    m["labels.self_s"] = (t, "s")
    m["labels.rows_per_s"] = (rate(calls("labels", "encode_label_flags"), t), "1/s")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["input.reject_share"] = (props.get("reject_share", 0.0), "ratio")
    m["input.duplicate_share"] = (props.get("duplicate_share", 0.0), "ratio")
    m["trace.overhead_ratio"] = (traced["wall_s"] / untraced_wall, "ratio")
    roots = sum(s["total_s"] for s in sp if s["parent"] is None)
    m["trace.coverage"] = (roots / traced["wall_s"], "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "corpuskit" / "__init__.py").is_file():
        print("error: no corpuskit sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from corpuskit import bpe, labels, tweets

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    load_before = _loadavg()
    try:
        runner = Runner(root, args.workload, args.seed, work / "main", (bpe, tweets, labels))
        # Seed check, which doubles as the warm-up: a second seed must give
        # other inputs and still pass the gate.
        check = Runner(root, args.workload, args.seed + 1, work / "check", (bpe, tweets, labels))
        warm = check.run(trace=False)
        seed_check_ok = (check.input_digests != runner.input_digests
                         and not check.failed_ops(warm, None))
        shutil.rmtree(work / "check")

        results: list[dict] = []
        reference = None
        failed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(results) < MIN_OPS:
            r = runner.run(trace=False)
            if reference is None and r["ok"]:
                reference = r["digests"]
            failed += len(runner.failed_ops(r, reference))
            results.append(r)
        attempted = len(results) * runner.n_ops()

        traced = runner.run(trace=True) if args.trace else None
        if traced is not None and not traced["ok"]:
            print(f"error: traced run failed: {traced['error']}\n{traced.get('stderr', '')}",
                  file=sys.stderr)
            return 1
        if traced is not None and runner.failed_ops(traced, reference):
            print("error: the traced run changed or broke the outputs", file=sys.stderr)
            return 1
        out_mb = sum(p.stat().st_size for p in runner.out.iterdir()) / 1e6 if runner.out.is_dir() else 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    ok = [r for r in results if r["ok"]]
    samples = {
        "wall_s": [r["wall_s"] for r in ok],
        "input_mb_per_s": [runner.input_bytes / 1e6 / r["wall_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
    }
    record = {
        "workload": args.workload, "seed": args.seed, "check_seed": args.seed + 1,
        "seconds": args.seconds, "trace": args.trace, "commit": _commit(root),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "loadavg_before": load_before, "loadavg_after": _loadavg(),
        "input_bytes": runner.input_bytes, "input_sha256": runner.input_digests,
        "check_input_sha256": check.input_digests, "seed_check_passed": seed_check_ok,
        "artifact_sha256": reference,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for r in results:
        if not r["ok"] or r["problems"] or any(r["codes"]):
            print("failure " + json.dumps({k: r.get(k) for k in ("error", "codes", "problems", "stderr")}))
    if not seed_check_ok:
        print("failure seed check " + json.dumps({k: warm.get(k) for k in ("error", "codes", "problems")}))
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for name, values in samples.items():
        if values:
            q1, med, q3 = _quartiles(values)
            print(f"{name:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>5}")
    print(f"fail_ratio {failed}/{attempted}")

    if not ok:
        print("error: no operation succeeded, nothing was measured", file=sys.stderr)
        return 1
    if traced is not None:
        props = ok[0]["props"]
        metrics_src = _layer_metrics(args.workload, traced, statistics.median(samples["wall_s"]),
                                     props, runner.input_bytes / 1e6, out_mb)
        for i, s in enumerate(traced["trace"]["spans"]):
            print(f"span {i} {json.dumps(s, sort_keys=True)}")
    else:
        metrics_src = {name: (statistics.median(v), E2E_UNITS[name]) for name, v in samples.items()}
        metrics_src["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    correct = failed == 0 and seed_check_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_src.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
