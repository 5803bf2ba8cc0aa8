"""One pass of one benchmark workload, in the interpreter that runs this file.

    python3 perfbench/workload.py MODE WORKLOAD SEED [SPANS_PATH]

`perfbench/run.py` starts this in a fresh interpreter for every pass, with
`src` on PYTHONPATH, so each pass pays oddmtc's process-wide caches cold,
as a CLI invocation does.  The last stdout line is a JSON object.

Modes:
  setup     import oddmtc and load the golden tables, timed
  pass      setup, then the workload untraced, with its results checked
  traced    the same pass with spans around every public layer call
  branches  every golden search of the workload, one m1 branch at a time
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: workload -> (golden tables searched, worker count asked for).  The
#: oracle sweep has no tables: it runs the `oracle-check` subcommand.
WORKLOADS = {
    "goldens-regular": (("T1", "T2", "T3", "T4", "T6", "T7"), 1),
    "goldens-minrun": (("T8",), 1),
    "goldens-jobs2": (("T5",), 2),
    "oracle-sweep": ((), 1),
}

ORACLE_BOUND = 10**6


def pool_jobs(asked: int, cores: int) -> int:
    """Workers to start: never more than the machine's cores."""
    return max(1, min(asked, cores))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def oracle_pairs() -> dict[str, int]:
    """(rank, s) -> solution count with fpdim <= ORACLE_BOUND, as pinned,
    for all 114 pairs with rank 17-49 and s != rank."""
    return json.loads((HERE / "oracle_counts.json").read_text("utf-8"))


def swept_pairs() -> list[str]:
    """Every other pair in (rank, s) order: 57 pairs covering every rank.

    All 114 would take about 31 s a pass, which the benchmark's time budget
    does not allow next to T8.
    """
    return sorted(oracle_pairs(), key=lambda key: tuple(map(int, key.split(","))))[::2]


def _setup():
    t0 = time.perf_counter()
    import oddmtc.cli  # noqa: F401  (imports every oddmtc module)
    from oddmtc import goldens
    tables = {t.table_id: t for t in goldens.load_goldens()}
    return time.perf_counter() - t0, tables


def _order(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_goldens(tables, table_ids, seed: int, jobs: int):
    """Verify each table; a search fails if its rows differ or it raises."""
    from oddmtc import goldens
    failed = 0
    for tid in _order(table_ids, seed):
        try:
            diff = goldens.verify(tables[tid], jobs=jobs)
        except Exception as exc:  # counted, and reported on stderr
            print(f"{tid}: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        if not diff.empty:
            print(f"{tid}: {len(diff.missing)} missing, {len(diff.extra)} extra",
                  file=sys.stderr)
            failed += 1
    return len(table_ids), failed


def run_oracle(seed: int):
    """`oddmtc oracle-check` on every pinned pair; compare its verdict and count."""
    from oddmtc import cli
    pairs = oracle_pairs()
    swept = swept_pairs()
    failed = 0
    for key in _order(swept, seed):
        rank, s = key.split(",")
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                status = cli.main(["oracle-check", "--rank", rank, "--invertibles", s,
                                   "--fpdim-bound", str(ORACLE_BOUND)])
        except Exception as exc:
            print(f"({key}): {exc!r}", file=sys.stderr)
            failed += 1
            continue
        want = f"match: {pairs[key]} solutions with fpdim <= {ORACLE_BOUND}\n"
        if status != 0 or buf.getvalue() != want:
            print(f"({key}): {buf.getvalue().strip()}", file=sys.stderr)
            failed += 1
    return len(swept), failed


def run_pass(workload: str, seed: int, tables) -> dict:
    table_ids, asked = WORKLOADS[workload]
    jobs = pool_jobs(asked, nproc())
    cpu0 = _children_cpu_s()
    t0 = time.perf_counter()
    if table_ids:
        attempted, failed = run_goldens(tables, table_ids, seed, jobs)
    else:
        attempted, failed = run_oracle(seed)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "attempted": attempted, "failed": failed, "jobs": jobs,
            "pool_cpu_s": _children_cpu_s() - cpu0, "peak_rss_mb": _peak_rss_mb()}


def run_branches(workload: str, tables) -> dict:
    """Time each m1 branch of each table through the public search call.

    A branch is the full search with every other m1 candidate excluded.
    Tables run in a fixed order, so every seed times the same branches.
    """
    from oddmtc.dimsearch import DimSolution, enumerate_solutions, m1_candidates
    out = {}
    for tid in WORKLOADS[workload][0]:
        params = tables[tid].params
        m1s = m1_candidates(params)
        branches, union = [], []
        for m1 in m1s:
            others = frozenset(m1s) - {m1}
            t0 = time.perf_counter()
            rows = enumerate_solutions(replace(params, m1_exclude=params.m1_exclude | others))
            branches.append([m1, time.perf_counter() - t0, len(rows)])
            union.extend(rows)
        union.sort(key=DimSolution.sort_key)
        out[tid] = {"branches": branches,
                    "union": [[s.fpdim, list(s.dims)] for s in union]}
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if mode == "traced":
        import oddmtc.cli  # noqa: F401
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        _, tables = _setup()
        result = run_pass(workload, seed, tables)
        tracer.uninstall()
        calls, seconds = tracer.totals()
        result.update(run_id=tracer.run_id, calls=calls, seconds=seconds,
                      rows=tracer.rows, discards=tracer.discards, outputs=tracer.outputs,
                      cli_self_s=tracer.self_seconds("cli.main"))
        if len(argv) > 3:
            tracer.write(argv[3])
    else:
        setup_s, tables = _setup()
        if mode == "setup":
            result = {}
        elif mode == "pass":
            result = run_pass(workload, seed, tables)
        elif mode == "branches":
            result = {"tables": run_branches(workload, tables)}
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
        result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
