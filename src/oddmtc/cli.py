"""
Command-line driver: dimension searches, grading-case analysis, per-rank
classification reports, golden-table verification, and oracle cross-checks.

Exit codes: 0 success, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from io import StringIO

from . import filters, gradings, goldens, oracle
from .dimsearch import DimSolution, SearchParams, enumerate_solutions

CITE_EMPTY_SEARCH = "rule:no-candidate-dimension-arrays"


# --------------------------------------------------------------------------
# emitters

def _sol_record(sol: DimSolution, s: int) -> dict:
    """A row as json; `s` is the invertible count of the layer searched."""
    return {"fpdim": sol.fpdim, "invertibles": s, "dims": list(sol.dims),
            "quotients": list(sol.quotients)}


def _emit_solutions(sols: list[DimSolution], s: int, k: int, fmt: str, out) -> None:
    if fmt == "json":
        json.dump([_sol_record(sol, s) for sol in sols], out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        header = ["fpdim", "s"] + [f"d{i}" for i in range(1, k + 1)]
        out.write(",".join(header) + "\n")
        for sol in sols:
            out.write(",".join(str(x) for x in (sol.fpdim, s) + sol.dims) + "\n")
    else:
        if not sols:
            out.write("no solutions\n")
            return
        out.write(f"| # | fpdim | dims |\n|---|---|---|\n")
        for i, sol in enumerate(sols, 1):
            out.write(f"| {i} | {sol.fpdim} | {' '.join(str(d) for d in sol.dims)} |\n")


def _emit_gradings(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        out.write("case,verdict,reasons\n")
        for r in rows:
            case = " ".join(str(x) for x in r["case"])
            out.write(f"{case},{r['verdict']},{';'.join(r['citations'])}\n")
    else:
        out.write("| case | verdict | citations |\n|---|---|---|\n")
        for r in rows:
            case = "{" + ", ".join(str(x) for x in r["case"]) + "}"
            out.write(f"| {case} | {r['verdict']} | {', '.join(r['citations'])} |\n")


# --------------------------------------------------------------------------
# search subcommands

def _params_from_args(args) -> SearchParams:
    return SearchParams(
        rank=args.rank,
        invertibles=args.invertibles,
        adjoint_rank=args.adjoint_rank,
        adjoint_invertibles=args.adjoint_invertibles,
        min_m1=args.min_m1,
        m1_square=args.m1_square,
        m1_exclude=frozenset(args.m1_exclude or ()),
        mi_coprime=args.mi_coprime,
        min_run=args.min_run,
        fpdim_bound=args.fpdim_bound,
    )


def cmd_dims(args, out) -> int:
    """`dims` and `adjoint-dims`; `--gc` of the latter sets `args.invertibles`."""
    params = _params_from_args(args)
    sols = enumerate_solutions(params, jobs=args.jobs)
    _emit_solutions(sols, params.layer_invertibles, params.k, args.format, out)
    return 0


# --------------------------------------------------------------------------
# gradings subcommand

def _grade_case(case: gradings.GradingCase, apply_filters: bool) -> dict:
    record = {"case": list(case.component_ranks), "verdict": "LISTED", "citations": []}
    if apply_filters:
        verdicts = (f(case) for f in gradings.GRADING_FILTERS)
        discards = [v for v in verdicts if v is not None and v.discard]
        record["verdict"] = "DISCARDED" if discards else "SURVIVING"
        record["citations"] = [v.citation for v in discards]
    return record


def cmd_gradings(args, out) -> int:
    rows = [_grade_case(c, args.apply_filters)
            for c in gradings.enumerate_cases(args.rank, args.invertibles)]
    _emit_gradings(rows, args.format, out)
    return 0


# --------------------------------------------------------------------------
# classify

#: Per-solution chain for a prime invertible count p with one surviving
#: grading case.  Each step maps (solution, case) to a FilterVerdict, or to
#: None when it does not apply (no trail step).  A solution no step discards
#: is SURVIVING iff the last step, the model test, returns a verdict (a
#: known model realizes it), else NEEDS_MANUAL_ANALYSIS.
PRIME_CHAIN = (
    filters.outside_dim_uniformity,
    lambda sol, case: filters.fixed_dim_multiplicity_filter(sol, case.invertibles),
    filters.component_packing_feasible,
    lambda sol, case: filters.deequiv_solution_filter(sol.dims, case.invertibles, sol.fpdim),
    filters.dual_product_rule,
    filters.forced_pointed_rule,
    filters.semidirect_model,
)

#: (rank, invertibles) -> (search, per-solution chain).  The search is the
#: id of the golden table whose search it is, or else the extra SearchParams
#: kwargs of a search no table holds.  An empty search discards the
#: hypothesis; rows found by a search without a chain are attached for
#: manual analysis.  At (33, 5), as in T3 at (41, 5), a prime invertible
#: count p with all non-adjoint components of rank p forces m1 to be a
#: square of at least p^2.
CLASSIFY_TABLE = {
    **{(rank, 1): ({}, ()) for rank in (17, 19, 21, 23)},
    (25, 3): ("T1", PRIME_CHAIN),
    (33, 5): (dict(min_m1=25, m1_square=True), ()),
    (41, 5): ("T3", ()),
    (47, 15): ({}, ()),
}

NOT_MECHANIZED = {
    "perfect": "perfect case not mechanized at this rank",
    "graded": "structural chain not mechanized for this configuration",
}


def _step(verdict: filters.FilterVerdict) -> dict:
    last = {"detail": verdict.detail} if verdict.discard else {"verdict": "PASS"}
    return {"filter": verdict.reason, "citation": verdict.citation, **last}


def _run_chain(chain, case: gradings.GradingCase, sols: list[DimSolution], entry: dict) -> None:
    trail = []
    for sol in sols:
        steps, status = [], "NEEDS_MANUAL_ANALYSIS"
        for step in chain:
            verdict = step(sol, case)
            if verdict is None:
                continue
            steps.append(_step(verdict))
            if verdict.discard:
                status = "DISCARDED"
                break
            if step is chain[-1]:
                status = "SURVIVING"
        trail.append({"solution": _sol_record(sol, case.invertibles),
                      "status": status, "steps": steps})
    for key, status in (("surviving", "SURVIVING"), ("needs_manual", "NEEDS_MANUAL_ANALYSIS")):
        entry[key] = [item["solution"] for item in trail if item["status"] == status]
    entry["filter_trail"] = trail
    entry["surviving_count"] = len(entry["surviving"])


def classify(rank: int, jobs: int = 1) -> dict:
    if rank % 2 == 0 or not 17 <= rank <= 49:
        raise ValueError("rank must be odd and between 17 and 49")
    report = {"rank": rank, "hypotheses": []}
    candidates = gradings.invertible_count_candidates(rank)
    report["invertible_candidates"] = candidates
    for s in candidates:
        if s == rank:
            report["hypotheses"].append(
                {"invertibles": s, "kind": "pointed", "status": "SURVIVING",
                 "note": "all simple objects invertible"})
            continue
        entry = {"invertibles": s, "kind": "perfect" if s == 1 else "graded"}
        report["hypotheses"].append(entry)
        survivors = []
        if s > 1:
            cases = gradings.enumerate_cases(rank, s)
            entry["cases"] = [_grade_case(c, apply_filters=True) for c in cases]
            survivors = [c for c, row in zip(cases, entry["cases"])
                         if row["verdict"] == "SURVIVING"]
            if not survivors:
                entry["status"] = "DISCARDED"
                entry["citations"] = sorted({c for row in entry["cases"] for c in row["citations"]})
                continue
        if (rank, s) not in CLASSIFY_TABLE:
            entry["status"] = "NEEDS_MANUAL_ANALYSIS"
            entry["detail"] = NOT_MECHANIZED[entry["kind"]]
            continue
        search, chain = CLASSIFY_TABLE[rank, s]
        if isinstance(search, str):
            (table,) = (t for t in goldens.load_goldens() if t.table_id == search)
            sols = goldens.search(table, jobs=jobs)
        else:
            sols = enumerate_solutions(SearchParams(rank=rank, invertibles=s, **search), jobs=jobs)
        if not sols:
            entry["status"] = "DISCARDED"
            entry["citations"] = [CITE_EMPTY_SEARCH]
            scope = "restricted" if search else f"the {entry['kind']}-case"
            entry["detail"] = f"{scope} search has no dimension arrays"
        elif chain:
            (case,) = survivors  # a chain row has exactly one surviving grading case
            entry["status"] = "ANALYZED"
            _run_chain(chain, case, sols, entry)
        else:
            entry["status"] = "NEEDS_MANUAL_ANALYSIS"
            entry["solutions"] = [_sol_record(r, s) for r in sols]
    return report


def _emit_classify(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    out.write(f"# Classification report: rank {report['rank']}\n\n")
    out.write(f"Invertible-count candidates: {report['invertible_candidates']}\n\n")
    for h in report["hypotheses"]:
        out.write(f"## {h['kind']} (invertibles = {h['invertibles']}): {h['status']}\n")
        if h.get("citations"):
            out.write(f"citations: {', '.join(h['citations'])}\n")
        if h.get("detail"):
            out.write(f"{h['detail']}\n")
        for case in h.get("cases", ()):
            cs = "{" + ", ".join(str(x) for x in case["case"]) + "}"
            cites = f" [{', '.join(case['citations'])}]" if case["citations"] else ""
            out.write(f"- case {cs}: {case['verdict']}{cites}\n")
        for item in h.get("filter_trail", ()):
            sol = item["solution"]
            last = item["steps"][-1] if item["steps"] else {}
            note = last.get("citation", "")
            out.write(f"- fpdim {sol['fpdim']} dims {sol['dims']}: "
                      f"{item['status']} [{note}]\n")
        for sol in h.get("solutions", ()):
            out.write(f"- fpdim {sol['fpdim']} dims {sol['dims']}\n")
        out.write("\n")


def cmd_classify(args, out) -> int:
    report = classify(args.rank, jobs=args.jobs)
    _emit_classify(report, args.format, out)
    return 0


# --------------------------------------------------------------------------
# verification subcommands

def _write_diff(diff, out) -> None:
    for row in diff.missing:
        out.write(f"  missing {row.fpdim} {list(row.dims)}\n")
    for row in diff.extra:
        out.write(f"  extra {row.fpdim} {list(row.dims)}\n")


def cmd_verify_goldens(args, out) -> int:
    tables = goldens.load_goldens()
    failures = []
    for table in tables:
        diff = goldens.verify(table, jobs=args.jobs)
        if diff.empty:
            out.write(f"{table.table_id}: match ({len(table.rows)} rows)\n")
        else:
            failures.append(diff)
            out.write(f"{table.table_id}: MISMATCH "
                      f"({len(diff.missing)} missing, {len(diff.extra)} extra)\n")
            _write_diff(diff, out)
    out.write(f"{len(tables) - len(failures)}/{len(tables)} tables match\n")
    return 1 if failures else 0


def cmd_oracle_check(args, out) -> int:
    params = _params_from_args(args)  # --fpdim-bound defaults to 10^6 here
    reference = oracle.oracle_rows(params)  # streamed: only the search's rows are held
    search = enumerate_solutions(params, jobs=args.jobs)
    diff = oracle.compare(search, reference)
    if diff.empty:
        # every oracle row was checked off one search row, and every row of a
        # bounded search passed `validate_solution`'s "fpdim within bound"
        out.write(f"match: {len(search)} solutions with fpdim <= {params.fpdim_bound}\n")
        return 0
    out.write(f"MISMATCH: {len(diff.missing)} missing, {len(diff.extra)} extra\n")
    _write_diff(diff, out)
    return 1


# --------------------------------------------------------------------------
# argument parsing

def _add_search_flags(sub, adjoint: bool) -> None:
    sub.add_argument("--rank", type=int, required=True)
    if adjoint:
        sub.add_argument("--gc", type=int, required=True, dest="invertibles", metavar="GC",
                         help="total invertible count of the category")
        sub.add_argument("--adjoint-rank", type=int, required=True)
        sub.add_argument("--adjoint-invertibles", type=int, required=True)
    else:
        sub.add_argument("--invertibles", type=int, required=True)
        sub.set_defaults(adjoint_rank=None, adjoint_invertibles=None)
    sub.add_argument("--min-m1", type=int, default=1)
    sub.add_argument("--m1-square", action="store_true")
    sub.add_argument("--m1-exclude", type=int, nargs="+", metavar="M1")
    sub.add_argument("--mi-coprime", type=int, metavar="P")
    sub.add_argument("--min-run", type=int, metavar="L")
    sub.add_argument("--fpdim-bound", type=int, metavar="B")


def _add_common(sub, formats=()) -> None:
    """--jobs and --out, and --format with the values the subcommand renders."""
    if formats:
        sub.add_argument("--format", choices=formats, default="md")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--out", metavar="PATH")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parser's objects form reference cycles, which
    a new parser per `main` call would leave to the collector."""
    parser = argparse.ArgumentParser(
        prog="oddmtc",
        description="Candidate dimension arrays and case analysis for "
                    "odd-dimensional modular tensor categories.")
    subs = parser.add_subparsers(dest="command", required=True)

    all_formats = ("json", "csv", "md")
    for name, adjoint, text in (
            ("dims", False, "enumerate dimension arrays over all simples"),
            ("adjoint-dims", True, "enumerate dimension arrays of the adjoint layer")):
        sub = subs.add_parser(name, help=text)
        _add_search_flags(sub, adjoint)
        _add_common(sub, all_formats)
        sub.set_defaults(func=cmd_dims)

    sub = subs.add_parser("gradings", help="universal-grading case decompositions")
    sub.add_argument("--rank", type=int, required=True)
    sub.add_argument("--invertibles", type=int, required=True)
    sub.add_argument("--apply-filters", action="store_true")
    _add_common(sub, all_formats)
    sub.set_defaults(func=cmd_gradings)

    sub = subs.add_parser("classify", help="per-rank classification report")
    sub.add_argument("--rank", type=int, required=True)
    _add_common(sub, ("json", "md"))
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("verify-goldens", help="diff the search against stored tables")
    _add_common(sub)
    sub.set_defaults(func=cmd_verify_goldens)

    sub = subs.add_parser("oracle-check",
                          help="cross-check the search against the bounded oracle")
    _add_search_flags(sub, adjoint=False)
    _add_common(sub)
    sub.set_defaults(func=cmd_oracle_check, fpdim_bound=10 ** 6)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    buffer = StringIO()
    try:
        if args.jobs < 1:  # every subcommand takes --jobs; reject it before any work starts
            raise ValueError("jobs must be positive")
        status = args.func(args, buffer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = buffer.getvalue()
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
