"""oddmtc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; oddmtc is imported from `src/`.  Every pass
runs in a fresh interpreter (`perfbench/workload.py`).  With `--trace 0`
the run repeats whole passes while the next one is expected to end within
S seconds (at least one pass) and reports the end-to-end metrics.  With
`--trace 1` it runs one untraced pass, one traced pass and, for golden
workloads, one pass per m1 branch, and reports the per-layer metrics.

The last stdout line is the result object; the line before it records the
environment.  Both are also written to `perfbench/out/`.  The exit code is
0 only when every search matched its golden rows or its oracle rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workload import WORKLOADS, nproc  # noqa: E402

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_child(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run one pass in a fresh interpreter and return its JSON line.

    The child gets its own process group, so a timeout also ends any pool
    workers it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), mode, workload, str(seed), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{mode} pass of {workload} ran past the run limit")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} pass of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def environment(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "oddmtc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "nproc": nproc(),
            "platform": platform.platform(), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def counts_only(metrics: dict) -> dict:
    """What a pooled workload reports when the machine has too few cores:
    no timings and no ratios of timings."""
    timed = ("_s", ".s", "_share", ".speedup", ".busy_frac", "overhead_frac")
    return {k: v for k, v in metrics.items() if not k.endswith(timed)}


def summarize_passes(workload: str, setups: list, passes: list):
    """Setup samples and untraced passes -> end-to-end metrics."""
    setups = setups + [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if passes[0]["jobs"] < WORKLOADS[workload][1]:
        metrics = counts_only(metrics)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, attempted, failed


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Setup samples before and after the passes, so they span the run."""
    def setups(n):
        return [run_child("setup", workload, seed, deadline)["setup_s"] for _ in range(n)]

    before = setups(SETUP_SAMPLES // 2)
    passes = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_child("pass", workload, seed, deadline))
        now = time.monotonic()
        if now - started + (now - t0) > seconds:
            break
    samples = before + setups(SETUP_SAMPLES - len(before))
    return (*summarize_passes(workload, samples, passes),
            {"pass_wall_s": [p["wall_s"] for p in passes], "setup_samples_s": samples})


def branch_metrics(tid: str, branches: list) -> dict:
    """[m1, seconds, rows] per branch -> the dimsearch.<T>.* metrics."""
    times = [b[1] for b in branches]
    productive = [b for b in branches if b[2]]
    return {
        f"dimsearch.{tid}.branches": len(branches),
        f"dimsearch.{tid}.branch_max_s": max(times),
        f"dimsearch.{tid}.branch_max_share": max(times) / sum(times),
        f"dimsearch.{tid}.empty_branch_s": sum(b[1] for b in branches if not b[2]),
        f"dimsearch.{tid}.productive_branch_frac": len(productive) / len(branches),
    }


def layer_metrics(workload: str, plain: dict, traced: dict, tables: dict):
    """Untraced pass, traced pass and per-branch times -> per-layer metrics."""
    calls, seconds, rows = traced["calls"], traced["seconds"], traced["rows"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    # the per-branch outputs must reproduce the full search exactly
    for tid, data in tables.items():
        attempted += 1
        if data["union"] != traced["outputs"].get(tid):
            print(f"{tid}: per-branch union differs from the full search", file=sys.stderr)
            failed += 1

    produced = sum(len(out) for out in traced["outputs"].values())
    metrics = {f"goldens.verify.{tid}.s": seconds.get(f"goldens.verify.{tid}", 0.0)
               for tid in TABLE_IDS}
    metrics["goldens.post_filter.keep_frac"] = (
        (produced - traced["discards"]) / produced if produced else 0.0)
    metrics["goldens.load_goldens.s"] = seconds.get("goldens.load_goldens", 0.0)
    metrics["dimsearch.enumerate_solutions.s"] = seconds.get("dimsearch.enumerate_solutions", 0.0)
    metrics["dimsearch.enumerate_solutions.calls"] = calls.get("dimsearch.enumerate_solutions", 0)
    metrics["dimsearch.rows"] = rows.get("dimsearch.enumerate_solutions", 0)
    for tid in TABLE_IDS:
        if tid in tables:
            metrics.update(branch_metrics(tid, tables[tid]["branches"]))
        else:
            metrics.update(dict.fromkeys(branch_metrics(tid, [[0, 1.0, 0]]), 0))
    pooled = plain["jobs"] > 1
    serial_s = sum(b[1] for t in tables.values() for b in t["branches"])
    metrics["dimsearch.pool.cpu_s"] = plain["pool_cpu_s"] if pooled else 0.0
    metrics["dimsearch.pool.busy_frac"] = (
        plain["pool_cpu_s"] / (plain["jobs"] * plain["wall_s"]) if pooled else 0.0)
    metrics["dimsearch.pool.speedup"] = serial_s / plain["wall_s"] if pooled else 0.0
    metrics["exactmath.factorize.calls"] = calls.get("exactmath.factorize", 0)
    metrics["exactmath.factorize.s"] = seconds.get("exactmath.factorize", 0.0)
    metrics["exactmath.isqrt_exact.calls"] = calls.get("exactmath.isqrt_exact", 0)
    metrics["oracle.oracle_enumerate.s"] = seconds.get("oracle.oracle_enumerate", 0.0)
    metrics["oracle.compare.s"] = seconds.get("oracle.compare", 0.0)
    metrics["oracle.rows"] = rows.get("oracle.oracle_enumerate", 0)
    metrics["cli.self_s"] = traced["cli_self_s"]
    metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics["ops_failed_frac"] = failed / attempted
    if plain["jobs"] < WORKLOADS[workload][1]:
        metrics = counts_only(metrics)
    return metrics, attempted, failed


def per_layer(workload: str, seed: int, deadline: float):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    plain = run_child("pass", workload, seed, deadline)
    traced = run_child("traced", workload, seed, deadline, str(spans_path))
    tables = (run_child("branches", workload, seed, deadline)["tables"]
              if WORKLOADS[workload][0] else {})
    detail = {"run_id": traced["run_id"], "spans": spans_path.relative_to(ROOT).as_posix(),
              "branches": {tid: t["branches"] for tid, t in tables.items()}}
    return (*layer_metrics(workload, plain, traced, tables), detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oddmtc" / "__init__.py").is_file():
        print(f"error: no oddmtc sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, attempted, failed, detail = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, detail = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    env = environment(args.workload, args.seed, args.trace)
    if args.trace:
        env["trace_overhead_frac"] = metrics.get("trace_overhead_frac")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "detail": detail, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
