"""
Command-line driver: dimension searches, grading-case analysis, per-rank
classification reports, golden-table verification, and oracle cross-checks.

Exit codes: 0 success, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from io import StringIO

from . import filters, gradings, goldens, oracle
from .dimsearch import DimSolution, Mode, SearchParams, enumerate_solutions

CITE_EMPTY_SEARCH = "rule:no-candidate-dimension-arrays"


# --------------------------------------------------------------------------
# emitters

def _sol_record(sol: DimSolution) -> dict:
    return {
        "fpdim": sol.fpdim,
        "invertibles": sol.invertibles,
        "dims": list(sol.dims),
        "quotients": list(sol.quotients),
    }


def _emit_solutions(sols: list[DimSolution], fmt: str, out) -> None:
    if fmt == "json":
        json.dump([_sol_record(s) for s in sols], out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        k = len(sols[0].dims) if sols else 0
        header = ["fpdim", "s"] + [f"d{i}" for i in range(1, k + 1)]
        out.write(",".join(header) + "\n")
        for s in sols:
            out.write(",".join(str(x) for x in (s.fpdim, s.invertibles) + s.dims) + "\n")
    else:
        if not sols:
            out.write("no solutions\n")
            return
        out.write(f"| # | fpdim | dims |\n|---|---|---|\n")
        for i, s in enumerate(sols, 1):
            out.write(f"| {i} | {s.fpdim} | {' '.join(str(d) for d in s.dims)} |\n")


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
    kwargs = dict(
        rank=args.rank,
        min_m1=args.min_m1,
        m1_square=args.m1_square,
        m1_exclude=frozenset(args.m1_exclude or ()),
        mi_coprime=args.mi_coprime,
        min_run=args.min_run,
        fpdim_bound=args.fpdim_bound,
        mode=args.mode,
    )
    if args.mode is Mode.BASIC:
        kwargs["invertibles"] = args.invertibles
    else:
        kwargs["invertibles"] = args.gc
        kwargs["adjoint_rank"] = args.adjoint_rank
        kwargs["adjoint_invertibles"] = args.adjoint_invertibles
    return SearchParams(**kwargs)


def cmd_dims(args, out) -> int:
    """`dims` and `adjoint-dims`; the subparser sets `args.mode`."""
    params = _params_from_args(args)
    _emit_solutions(enumerate_solutions(params, jobs=args.jobs), args.format, out)
    return 0


# --------------------------------------------------------------------------
# gradings subcommand

def _grade_case(case: gradings.GradingCase, apply_filters: bool) -> dict:
    record = {"case": list(case.component_ranks), "verdict": "LISTED", "citations": []}
    if apply_filters:
        discards = [v for v in (f(case) for f in gradings.GRADING_FILTERS) if v.discard]
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

def _dual_product(sol: DimSolution, case: gradings.GradingCase):
    non_div = [d for d in sol.dims if d % case.invertibles]
    return filters.dual_product_feasible(sorted(set(sol.dims)), min(non_div)) if non_div else None


def _forced_pointed(sol: DimSolution, case: gradings.GradingCase):
    if filters.forced_pointed(sol.fpdim):
        return filters.FilterVerdict(
            filters.Verdict.DISCARD, "forced-pointed", filters.CITE_FORCED_POINTED,
            detail=f"fpdim {sol.fpdim} forces a pointed category")
    return None


#: Per-solution chain for a prime invertible count p with one surviving
#: grading case.  Each step maps (solution, case) to a FilterVerdict, or to
#: None when it does not apply (no trail step).  A solution no step discards
#: is SURVIVING if the last step passes it (a known model realizes it),
#: else NEEDS_MANUAL_ANALYSIS.
PRIME_CHAIN = (
    filters.outside_dim_uniformity,
    lambda sol, case: filters.fixed_dim_multiplicity_filter(sol, case.invertibles),
    filters.component_packing_feasible,
    lambda sol, case: filters.deequiv_solution_filter(sol.dims, case.invertibles, sol.fpdim),
    _dual_product,
    _forced_pointed,
    filters.semidirect_model,
)

M1_SQUARE_25 = dict(min_m1=25, m1_square=True)

#: (rank, invertibles) -> (extra SearchParams kwargs, per-solution chain).
#: An empty search discards the hypothesis; rows found by a search without
#: a chain are attached for manual analysis.  M1_SQUARE_25 applies when a
#: prime invertible count p with all non-adjoint components of rank p forces
#: m1 to be a square of at least p^2.
CLASSIFY_TABLE = {
    **{(rank, 1): ({}, ()) for rank in (17, 19, 21, 23)},
    (25, 3): ({}, PRIME_CHAIN),
    (33, 5): (M1_SQUARE_25, ()),
    (41, 5): (M1_SQUARE_25, ()),
    (47, 15): ({}, ()),
}

NOT_MECHANIZED = {
    "perfect": "perfect case not mechanized at this rank",
    "graded": "structural chain not mechanized for this configuration",
}


def _step(verdict: filters.FilterVerdict) -> dict:
    last = {"detail": verdict.detail} if verdict.discard else {"verdict": verdict.verdict.name}
    return {"filter": verdict.reason, "citation": verdict.citation, **last}


def _run_chain(chain, case: gradings.GradingCase, sols: list[DimSolution], entry: dict) -> None:
    trail = []
    for sol in sols:
        steps = []
        for step in chain:
            verdict = step(sol, case)
            if verdict is not None:
                steps.append(_step(verdict))
                if verdict.discard:
                    status = "DISCARDED"
                    break
        else:
            passed = verdict is not None and verdict.verdict is filters.Verdict.PASS
            status = "SURVIVING" if passed else "NEEDS_MANUAL_ANALYSIS"
        trail.append({"solution": _sol_record(sol), "status": status, "steps": steps})
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
        extra, chain = CLASSIFY_TABLE[rank, s]
        sols = enumerate_solutions(SearchParams(rank=rank, invertibles=s, **extra), jobs=jobs)
        if not sols:
            entry["status"] = "DISCARDED"
            entry["citations"] = [CITE_EMPTY_SEARCH]
            scope = "restricted" if extra else f"the {entry['kind']}-case"
            entry["detail"] = f"{scope} search has no dimension arrays"
        elif chain:
            (case,) = survivors  # a chain row has exactly one surviving grading case
            entry["status"] = "ANALYZED"
            _run_chain(chain, case, sols, entry)
        else:
            entry["status"] = "NEEDS_MANUAL_ANALYSIS"
            entry["solutions"] = [_sol_record(r) for r in sols]
    return report


def _emit_classify(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    out.write(f"# Classification report: rank {report['rank']}\n\n")
    out.write(f"Invertible-count candidates: {report['invertible_candidates']}\n\n")
    for h in report["hypotheses"]:
        out.write(f"## {h['kind']} (invertibles = {h['invertibles']}): "
                  f"{h.get('status', 'ANALYZED')}\n")
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
            out.write(f"{table.table_id}: match ({table.row_count} rows)\n")
        else:
            failures.append(diff)
            out.write(f"{table.table_id}: MISMATCH "
                      f"({len(diff.missing)} missing, {len(diff.extra)} extra)\n")
            _write_diff(diff, out)
    out.write(f"{len(tables) - len(failures)}/{len(tables)} tables match\n")
    return 1 if failures else 0


def cmd_oracle_check(args, out) -> int:
    params = _params_from_args(args)  # --fpdim-bound defaults to 10^6 here
    search = enumerate_solutions(params, jobs=args.jobs)
    reference = oracle.oracle_enumerate(params, params.fpdim_bound)
    diff = oracle.compare(search, reference, params.fpdim_bound)
    if diff.empty:
        out.write(f"match: {len(reference)} solutions with fpdim <= {params.fpdim_bound}\n")
        return 0
    out.write(f"MISMATCH: {len(diff.missing)} missing, {len(diff.extra)} extra\n")
    _write_diff(diff, out)
    return 1


# --------------------------------------------------------------------------
# argument parsing

def _add_search_flags(sub, mode: Mode) -> None:
    sub.set_defaults(mode=mode)
    sub.add_argument("--rank", type=int, required=True)
    if mode is Mode.ADJOINT:
        sub.add_argument("--gc", type=int, required=True,
                         help="total invertible count of the category")
        sub.add_argument("--adjoint-rank", type=int, required=True)
        sub.add_argument("--adjoint-invertibles", type=int, required=True)
    else:
        sub.add_argument("--invertibles", type=int, required=True)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddmtc",
        description="Candidate dimension arrays and case analysis for "
                    "odd-dimensional modular tensor categories.")
    subs = parser.add_subparsers(dest="command", required=True)

    all_formats = ("json", "csv", "md")
    for name, mode, text in (
            ("dims", Mode.BASIC, "enumerate dimension arrays over all simples"),
            ("adjoint-dims", Mode.ADJOINT, "enumerate dimension arrays of the adjoint layer")):
        sub = subs.add_parser(name, help=text)
        _add_search_flags(sub, mode)
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
    _add_search_flags(sub, Mode.BASIC)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
