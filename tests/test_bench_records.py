"""Every committed benchmark record (BENCH_*.json at the repository root) is
a correct run without failed operations that reports each end-to-end metric
BENCHMARK.json names, on each workload and for both sides of the comparison."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_records_are_correct_runs_with_every_metric(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    assert sorted(workloads) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            records = workloads[workload][side]
            assert records, (workload, side)
            for i, record in enumerate(records):
                where = (workload, side, i)
                assert record["correct"] is True, where
                assert record["failed"] == 0, where
                metrics = record["metrics"]
                for name in END_TO_END:
                    value = metrics[name]["value"]
                    assert isinstance(value, (int, float)) and math.isfinite(value), (where, name)
