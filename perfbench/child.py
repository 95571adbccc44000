"""One measured operation of a benchmark workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC.json   (with the program on PYTHONPATH)

Set-up is timed first: `import corpuskit` plus load_config/validate_config
for a build, or argument parsing plus load_model for the CLI chain. Then the
operation itself is timed, from the first call into the program until every
output file is written. The process is single-threaded and runs one job. It
writes its timings, its own peak RSS and, when traced, its spans to the
result file named in the spec.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """Peak RSS of this process since it started the child program.

    On Linux, ru_maxrss also carries the launching parent's peak across
    fork and exec, so the kernel's per-address-space high-water mark
    (VmHWM) is read instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB


def run(spec: dict) -> dict:
    t0 = time.perf_counter()
    if spec["kind"] == "build":
        from corpuskit import pipeline

        cfg = pipeline.load_config(spec["config"])
        problems = pipeline.validate_config(cfg)
        if problems:
            raise ValueError("config: " + "; ".join(problems))
    else:
        from corpuskit import bpe, cli

        args = cli.build_parser().parse_args(spec["encode_argv"])
        bpe.load_model(args.merges, args.vocab)
    setup_s = time.perf_counter() - t0
    setup_rss_mb = _peak_rss_mb()

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install()

    t1 = time.perf_counter()
    if spec["kind"] == "build":
        pipeline.run_pipeline(cfg, log=None)
        codes = [0]
    else:
        codes = []
        for argv in spec["chain"]:
            try:
                codes.append(cli.main(argv))
            except Exception:  # counted as a failed subcommand, the chain goes on
                traceback.print_exc()
                codes.append(-1)
    wall_s = time.perf_counter() - t1

    result = {
        "ok": True,
        "codes": codes,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        spans.check(tracer, spec["workload"])
        result["trace"] = spans.summary(tracer)
    return result


def main(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    try:
        result = run(spec)
    except Exception as e:
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(e).__name__}: {e}"}
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
