"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py              # all, ~10 min
    python3 -m pytest perfbench/test_perfbench.py -m "not slow"  # seconds

The slow tests run `run.py --trace 1` on every workload with two seeds and
check that the exact counts repeat and equal the values pinned below, so a
later change can cite a count difference instead of a timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402

#: Exact counts from the traced run, equal for every seed; every count not
#: listed is 0.  A change that moves one of these changed the work a search
#: does.  Pool workers keep no spans, so on goldens-jobs2 the exactmath
#: counts cover the parent process only.
PINNED = {
    "goldens-regular": {
        "dimsearch.rows": 79,
        "dimsearch.T1.branches": 2, "dimsearch.T2.branches": 6,
        "dimsearch.T3.branches": 1, "dimsearch.T4.branches": 12,
        "dimsearch.T6.branches": 5, "dimsearch.T7.branches": 2,
        "exactmath.factorize.calls": 7486,
        "exactmath.isqrt_exact.calls": 541,
    },
    "goldens-minrun": {
        "dimsearch.rows": 21,
        "dimsearch.T8.branches": 4,
        "exactmath.factorize.calls": 62430,
        "exactmath.isqrt_exact.calls": 654,
    },
    "oracle-sweep": {
        "dimsearch.rows": 23049,
        "exactmath.factorize.calls": 64271,
        "oracle.rows": 23049,
    },
    "goldens-jobs2": {
        "dimsearch.rows": 72,
        "dimsearch.T5.branches": 9,
    },
}

COUNT_NAMES = ("dimsearch.rows", "exactmath.factorize.calls",
               "exactmath.isqrt_exact.calls", "oracle.rows")


def _fake_runs(jobs: int):
    plain = {"wall_s": 2.0, "attempted": 1, "failed": 0, "jobs": jobs,
             "pool_cpu_s": 3.0, "peak_rss_mb": 20.0, "setup_s": 0.05}
    rows = [[441, [7, 5]]]
    traced = dict(plain, wall_s=2.2, calls={"exactmath.factorize": 4},
                  seconds={"goldens.verify.T5": 2.1}, rows={}, discards=0,
                  outputs={"T5": rows}, cli_self_s=0.0)
    tables = {"T5": {"branches": [[19, 1.5, 1], [27, 1.0, 0]], "union": rows}}
    return plain, traced, tables


def _spec_names(section: str) -> list[str]:
    return [m["name"] for m in run.benchmark_spec()[section]]


def test_layer_metrics_cover_the_spec():
    metrics, attempted, failed = run.layer_metrics("goldens-jobs2", *_fake_runs(jobs=2))
    assert sorted(metrics) == sorted(_spec_names("per_layer"))
    assert (attempted, failed) == (3, 0)
    assert metrics["dimsearch.T5.branch_max_share"] == 0.6
    assert metrics["dimsearch.T5.empty_branch_s"] == 1.0
    assert metrics["dimsearch.pool.busy_frac"] == 0.75
    assert metrics["dimsearch.pool.speedup"] == 1.25


def test_branch_union_mismatch_counts_as_failure():
    plain, traced, tables = _fake_runs(jobs=2)
    tables["T5"]["union"] = []
    metrics, _, failed = run.layer_metrics("goldens-jobs2", plain, traced, tables)
    assert failed == 1 and metrics["ops_failed_frac"] == 1 / 3


def test_end_to_end_metrics_cover_the_spec():
    plain, _, _ = _fake_runs(jobs=2)
    metrics, _, _ = run.summarize_passes("goldens-jobs2", [0.04, 0.06], [plain])
    assert sorted(metrics) == sorted(_spec_names("end_to_end"))
    assert metrics["setup_s"] == 0.05


def test_pool_never_exceeds_cores():
    assert workload.pool_jobs(2, 64) == 2
    assert workload.pool_jobs(2, 2) == 2
    assert workload.pool_jobs(2, 1) == 1
    assert workload.pool_jobs(1, 2) == 1


def test_one_core_reports_counts_only():
    """With one core the pooled workload runs serially and keeps no timings."""
    plain, traced, tables = _fake_runs(jobs=workload.pool_jobs(2, 1))
    e2e, _, _ = run.summarize_passes("goldens-jobs2", [0.05], [plain])
    assert sorted(e2e) == ["peak_rss_mb"]
    layer, _, _ = run.layer_metrics("goldens-jobs2", plain, traced, tables)
    assert "exactmath.factorize.calls" in layer
    assert "dimsearch.T5.branches" in layer
    assert not [k for k in layer if k.endswith(("_s", ".s", "_share"))]
    assert "dimsearch.pool.busy_frac" not in layer
    assert "trace_overhead_frac" not in layer


def test_workloads_match_the_spec():
    assert sorted(workload.WORKLOADS) == sorted(_spec_names("workloads"))


def test_oracle_pairs():
    pairs = workload.oracle_pairs()
    assert len(pairs) == 114
    assert all(int(k.split(",")[1]) < int(k.split(",")[0]) for k in pairs)
    swept = workload.swept_pairs()
    assert len(swept) == 57
    assert {k.split(",")[0] for k in swept} == {str(r) for r in range(17, 50, 2)}


def _traced(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PINNED))
def test_counts_repeat_across_runs_and_seeds(name):
    first, second = _traced(name, 1), _traced(name, 2)
    counts = {k: v for k, v in first.items()
              if k in COUNT_NAMES or k.endswith(".branches")}
    assert counts == {k: second[k] for k in counts}
    assert {k: v for k, v in counts.items() if v} == PINNED[name]
    assert first["ops_failed_frac"] == second["ops_failed_frac"] == 0
