import csv
import gc
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddmtc import cli, dimsearch, gradings, oracle
from oddmtc.dimsearch import DimSolution, RowDiff, SearchParams

# Expected `classify` verdicts, ranks 17-49: D discarded, N needs manual
# analysis, S surviving (pointed), A analyzed by a per-solution chain.
D, N, S, A = "DISCARDED", "NEEDS_MANUAL_ANALYSIS", "SURVIVING", "ANALYZED"
EMPTY = cli.CITE_EMPTY_SEARCH
ADJ = gradings.CITE_ADJOINT_CONTAINS
DIV = gradings.CITE_DIVISIBILITY
MIN3 = gradings.CITE_MIN_THREE
ODD = gradings.CITE_ODD_MULT

CLASSIFY_STATUS = {
    17: {1: D, 3: N, 9: D, 17: S},
    19: {1: D, 3: D, 11: D, 19: S},
    21: {1: D, 3: D, 5: D, 7: D, 13: D, 21: S},
    23: {1: D, 3: D, 5: D, 7: D, 15: D, 23: S},
    25: {1: N, 3: A, 5: N, 9: D, 17: D, 25: S},
    27: {1: N, 3: N, 9: D, 11: D, 19: D, 27: S},
    29: {1: N, 3: D, 5: D, 7: D, 13: D, 21: D, 29: S},
    31: {1: N, 3: D, 5: D, 7: D, 15: D, 23: D, 31: S},
    33: {1: N, 3: N, 5: D, 9: N, 11: D, 17: D, 25: D, 33: S},
    35: {1: N, 3: N, 5: D, 7: D, 9: N, 11: D, 19: D, 27: D, 35: S},
    37: {1: N, 3: N, 5: D, 7: D, 13: D, 21: D, 29: D, 37: S},
    39: {1: N, 3: D, 5: D, 7: D, 13: D, 15: D, 23: D, 31: D, 39: S},
    41: {1: N, 3: N, 5: N, 9: N, 11: D, 17: D, 25: D, 33: D, 41: S},
    43: {1: N, 3: N, 5: D, 7: D, 9: N, 11: D, 19: D, 27: D, 35: D, 43: S},
    45: {1: N, 3: N, 5: D, 7: D, 9: D, 13: D, 15: D, 21: D, 29: D, 37: D, 45: S},
    47: {1: N, 3: N, 5: D, 7: D, 13: D, 15: D, 23: D, 31: D, 39: D, 47: S},
    49: {1: N, 3: N, 5: N, 7: N, 9: N, 11: D, 17: D, 25: D, 33: D, 41: D, 49: S},
}

CLASSIFY_DISCARD_CITATIONS = {
    (17, 1): [EMPTY],
    (17, 9): [MIN3],
    (19, 1): [EMPTY],
    (19, 3): [ADJ, DIV, MIN3, ODD],
    (19, 11): [ADJ, DIV, MIN3],
    (21, 1): [EMPTY],
    (21, 3): [DIV],
    (21, 5): [ADJ, DIV, MIN3, ODD],
    (21, 7): [ADJ, DIV, MIN3],
    (21, 13): [ADJ, DIV, MIN3],
    (23, 1): [EMPTY],
    (23, 3): [DIV],
    (23, 5): [DIV, MIN3],
    (23, 7): [ADJ, DIV, MIN3, ODD],
    (23, 15): [ADJ, MIN3],
    (25, 9): [ADJ, MIN3, ODD],
    (25, 17): [ADJ, DIV, MIN3],
    (27, 9): [ADJ],
    (27, 11): [ADJ, DIV, MIN3, ODD],
    (27, 19): [ADJ, DIV, MIN3],
    (29, 3): [DIV],
    (29, 5): [DIV, MIN3, ODD],
    (29, 7): [DIV, MIN3],
    (29, 13): [ADJ, DIV, MIN3, ODD],
    (29, 21): [ADJ, MIN3],
    (31, 3): [DIV],
    (31, 5): [ADJ, DIV, MIN3],
    (31, 7): [DIV, MIN3, ODD],
    (31, 15): [ADJ, MIN3, ODD],
    (31, 23): [ADJ, DIV, MIN3],
    (33, 5): [EMPTY],
    (33, 11): [ADJ, DIV, MIN3],
    (33, 17): [ADJ, DIV, MIN3, ODD],
    (33, 25): [ADJ, MIN3],
    (35, 5): [DIV],
    (35, 7): [ADJ, DIV, MIN3],
    (35, 11): [ADJ, DIV, MIN3, ODD],
    (35, 19): [ADJ, DIV, MIN3, ODD],
    (35, 27): [ADJ, MIN3],
    (37, 5): [ADJ, DIV, MIN3, ODD],
    (37, 7): [ADJ, DIV, MIN3],
    (37, 13): [ADJ, DIV, MIN3, ODD],
    (37, 21): [ADJ, MIN3, ODD],
    (37, 29): [ADJ, DIV, MIN3],
    (39, 3): [DIV, ODD],
    (39, 5): [DIV, MIN3, ODD],
    (39, 7): [ADJ, DIV, MIN3, ODD],
    (39, 13): [ADJ, DIV, MIN3],
    (39, 15): [ADJ, MIN3, ODD],
    (39, 23): [ADJ, DIV, MIN3, ODD],
    (39, 31): [ADJ, DIV, MIN3],
    (41, 11): [DIV, MIN3],
    (41, 17): [ADJ, DIV, MIN3, ODD],
    (41, 25): [ADJ, MIN3, ODD],
    (41, 33): [ADJ, MIN3],
    (43, 5): [DIV],
    (43, 7): [DIV, MIN3],
    (43, 11): [ADJ, DIV, MIN3, ODD],
    (43, 19): [ADJ, DIV, MIN3, ODD],
    (43, 27): [ADJ, MIN3, ODD],
    (43, 35): [ADJ, MIN3],
    (45, 5): [DIV, MIN3, ODD],
    (45, 7): [DIV, MIN3, ODD],
    (45, 9): [ADJ],
    (45, 13): [ADJ, DIV, MIN3, ODD],
    (45, 15): [ADJ],
    (45, 21): [ADJ, MIN3, ODD],
    (45, 29): [ADJ, DIV, MIN3, ODD],
    (45, 37): [ADJ, DIV, MIN3],
    (47, 5): [ADJ, DIV, MIN3, ODD],
    (47, 7): [DIV, MIN3, ODD],
    (47, 13): [ADJ, DIV, MIN3],
    (47, 15): [EMPTY],
    (47, 23): [ADJ, DIV, MIN3, ODD],
    (47, 31): [ADJ, DIV, MIN3, ODD],
    (47, 39): [ADJ, MIN3],
    (49, 11): [ADJ, DIV, MIN3],
    (49, 17): [ADJ, DIV, MIN3, ODD],
    (49, 25): [ADJ, MIN3, ODD],
    (49, 33): [ADJ, MIN3, ODD],
    (49, 41): [ADJ, DIV, MIN3],
}

# The abstract's three exact statements, each as (ranks, s excused) over the
# graded cells 1 < s < rank: rank <= 23 is pointed; rank 25 is pointed,
# perfect or the realized s = 3 model; ranks 27-49 not 1 (mod 8) are pointed
# or perfect.  Every claimed cell should end DISCARDED.
PAPER_CLAIMS = {
    "rank <= 23 is pointed": (range(17, 24, 2), ()),
    "rank 25 is pointed, perfect or the s = 3 model": ((25,), (3,)),
    "ranks 27-49 not 1 mod 8 are pointed or perfect":
        ([r for r in range(27, 50, 2) if r % 8 != 1], ()),
}

# Claimed cells that `classify` does not discard yet.  Closing one is a
# reviewed removal here; a cell discarded today must never reopen.
PAPER_OPEN_CELLS = {(17, 3), (25, 5), (27, 3), (35, 3), (35, 9), (37, 3),
                    (43, 3), (43, 9), (45, 3), (47, 3)}


# classify(25)'s (25, 3) filter trail, one entry per T1 row in table order:
# the sha256 of every step (canonical JSON), and each row's last step as
# (filter, detail of a discard or "PASS").
FIXED = "dim {} occurs {} times; not 0 mod 6 and 3 does not divide it"
DEEQUIV = ("deequiv", "every fixed/non-fixed assignment fails")
RANK25_TRAIL_SHA256 = "84ecfe2aaa120ee094c937e0bf50e37bf78753fd0e9e7ef58476a6b3b431c90b"
RANK25_TRAIL_LAST = [
    *(("fixed-dim-multiplicity", FIXED.format(v, n)) for v, n in (
        (49, 2), (275, 2), (175, 2), (7, 2), (11, 2), (5, 2), (5, 2), (7, 2), (7, 2),
        (11, 2), (5, 2), (5, 2), (5, 4), (11, 2), (85, 4))),
    DEEQUIV,
    *(("fixed-dim-multiplicity", FIXED.format(v, n)) for v, n in (
        (7, 4), (11, 2), (55, 4))),
    ("dual-product", "5^2 = 1 + 2*sum over dims [5] has no solution"),
    *(("fixed-dim-multiplicity", FIXED.format(v, n)) for v, n in (
        (5, 2), (5, 2), (5, 2), (13, 4))),
    DEEQUIV,
    ("fixed-dim-multiplicity", FIXED.format(5, 4)),
    ("fixed-dim-multiplicity", FIXED.format(5, 4)),
    DEEQUIV,
    DEEQUIV,
    ("fixed-dim-multiplicity", FIXED.format(5, 4)),
    ("dual-product", "PASS"),
    ("dual-product", "PASS"),
    DEEQUIV,
    ("outside-dim-uniformity", "need 6 objects of dim 15, found 4"),
    ("semidirect-model", "PASS"),
]

RANK17_MD = """\
# Classification report: rank 17

Invertible-count candidates: [1, 3, 9, 17]

## perfect (invertibles = 1): DISCARDED
citations: rule:no-candidate-dimension-arrays
the perfect-case search has no dimension arrays

## graded (invertibles = 3): NEEDS_MANUAL_ANALYSIS
structural chain not mechanized for this configuration
- case {11, 3, 3}: SURVIVING

## graded (invertibles = 9): DISCARDED
citations: rule:pointed-part-needs-three-large-components
- case {9, 1, 1, 1, 1, 1, 1, 1, 1}: DISCARDED [rule:pointed-part-needs-three-large-components]

## pointed (invertibles = 17): SURVIVING

"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestDims:
    def test_csv(self, capsys):
        code, out = run(capsys, "dims", "--rank", "27", "--invertibles", "3",
                        "--min-m1", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["fpdim", "s"] + [f"d{i}" for i in range(1, 13)]
        assert rows[1] == ["2475", "3", "15", "15", "15", "15", "15",
                           "5", "5", "5", "3", "3", "3", "3"]

    def test_json(self, capsys):
        code, out = run(capsys, "dims", "--rank", "27", "--invertibles", "3",
                        "--min-m1", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == [{
            "fpdim": 2475, "invertibles": 3,
            "dims": [15, 15, 15, 15, 15, 5, 5, 5, 3, 3, 3, 3],
            "quotients": [11, 11, 11, 11, 11, 99, 99, 99, 275, 275, 275, 275],
        }]

    def test_md_default(self, capsys):
        code, out = run(capsys, "dims", "--rank", "27", "--invertibles", "3",
                        "--min-m1", "5")
        assert code == 0
        assert "| 1 | 2475 |" in out

    def test_empty_md(self, capsys):
        code, out = run(capsys, "dims", "--rank", "17", "--invertibles", "1")
        assert code == 0
        assert "no solutions" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out = run(capsys, "dims", "--rank", "27", "--invertibles", "3",
                        "--min-m1", "5", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "2475" in target.read_text()

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dims", "--rank", "27"])
        assert exc.value.code == 2

    def test_invalid_rank(self, capsys):
        assert cli.main(["dims", "--rank", "26", "--invertibles", "3"]) == 2

    def test_empty_csv_header(self, capsys):
        """The header names the k = 16 dims of the search even with no row."""
        header = ",".join(["fpdim", "s"] + [f"d{i}" for i in range(1, 17)])
        assert run(capsys, "dims", "--rank", "47", "--invertibles", "15",
                   "--format", "csv") == (0, header + "\n")

    # rank 27 with 3 invertibles has k = 12 dual pairs, so min_run 13 cannot occur
    @pytest.mark.parametrize("flag, value", [
        ("--min-run", "0"), ("--min-run", "-1"), ("--min-run", "1"), ("--min-run", "13"),
        ("--mi-coprime", "1"), ("--mi-coprime", "0"),
        ("--fpdim-bound", "0"), ("--fpdim-bound", "-7"),
        ("--jobs", "0"), ("--jobs", "-3"),
    ])
    def test_invalid_search_input(self, capsys, flag, value):
        code = cli.main(["dims", "--rank", "27", "--invertibles", "3", "--min-m1", "5",
                         flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["gradings", "--rank", "29", "--invertibles", "5"],
    ["classify", "--rank", "29"],
    ["verify-goldens"],
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_every_subcommand_rejects_bad_jobs(capsys, monkeypatch, argv, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code = cli.main(argv + ["--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_serial_runs_never_import_multiprocessing():
    """Only a worker pool needs `multiprocessing`, so a fresh interpreter that
    loads the goldens and runs three subcommands with the default --jobs 1
    never imports it."""
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from oddmtc import cli, goldens\n"
        "goldens.load_goldens()\n"
        "for argv in (['dims', '--rank', '27', '--invertibles', '3'],\n"
        "             ['gradings', '--rank', '19', '--invertibles', '3', '--apply-filters'],\n"
        "             ['oracle-check', '--rank', '33', '--invertibles', '3']):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        print(cli.main(argv), file=sys.stderr)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "0\n0\n0\n")
    assert proc.stdout == "False\n"


class TestAdjointDims:
    def test_rank45(self, capsys):
        code, out = run(capsys, "adjoint-dims", "--rank", "45", "--gc", "3",
                        "--adjoint-rank", "15", "--adjoint-invertibles", "3",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["2925", "333"]

    def test_count_is_the_searched_layers(self, capsys):
        """The rendered count is the adjoint layer's 3, not --gc's 9."""
        argv = ("adjoint-dims", "--rank", "19", "--gc", "9",
                "--adjoint-rank", "11", "--adjoint-invertibles", "3", "--format")
        assert run(capsys, *argv, "csv") == (0, "fpdim,s,d1,d2,d3,d4\n675,3,3,3,3,3\n")
        code, out = run(capsys, *argv, "json")
        assert code == 0
        assert json.loads(out) == [{"fpdim": 675, "invertibles": 3, "dims": [3, 3, 3, 3],
                                    "quotients": [75, 75, 75, 75]}]

    def test_adjoint_rank_exceeds_rank(self, capsys):
        code = cli.main(["adjoint-dims", "--rank", "7", "--gc", "3",
                         "--adjoint-rank", "9", "--adjoint-invertibles", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: adjoint_rank must not exceed rank\n"

    def test_adjoint_rank_off_rank_mod_8(self, capsys):
        """fpdim = rank = 5 (mod 8) from m_1, but = 3*17 = 3 (mod 8) from the
        layer equation: no row can exist, so the input is rejected."""
        code = cli.main(["adjoint-dims", "--rank", "45", "--gc", "3",
                         "--adjoint-rank", "17", "--adjoint-invertibles", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: rank must be congruent to invertibles"
                                " * adjoint_rank mod 8\n")


class TestGradings:
    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code = cli.main(["gradings", "--rank", "25", "--invertibles", "3",
                         "--out", str(tmp_path / "missing" / "x.md")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_listing(self, capsys):
        code, out = run(capsys, "gradings", "--rank", "29", "--invertibles", "5",
                        "--format", "json")
        assert code == 0
        cases = [tuple(r["case"]) for r in json.loads(out)]
        assert sorted(cases) == sorted(
            [(25, 1, 1, 1, 1), (17, 9, 1, 1, 1), (9, 9, 9, 1, 1)])

    def test_apply_filters_rank33(self, capsys):
        code, out = run(capsys, "gradings", "--rank", "33", "--invertibles", "3",
                        "--apply-filters", "--format", "json")
        assert code == 0
        verdicts = {tuple(r["case"]): r["verdict"] for r in json.loads(out)}
        assert verdicts[(27, 3, 3)] == "SURVIVING"
        assert verdicts[(19, 11, 3)] == "DISCARDED"
        assert verdicts[(11, 11, 11)] == "DISCARDED"

    def test_csv_apply_filters_rank33(self, capsys):
        assert run(capsys, "gradings", "--rank", "33", "--invertibles", "3",
                   "--apply-filters", "--format", "csv") == (0, (
            "case,verdict,reasons\n"
            "27 3 3,SURVIVING,\n"
            "19 11 3,DISCARDED,rule:non-adjoint-component-ranks-divisible-by-p;"
            "rule:unique-odd-multiplicity-component-rank\n"
            "11 11 11,DISCARDED,rule:non-adjoint-component-ranks-divisible-by-p\n"))

    def test_discards_carry_citations(self, capsys):
        _, out = run(capsys, "gradings", "--rank", "33", "--invertibles", "3",
                     "--apply-filters", "--format", "json")
        for record in json.loads(out):
            if record["verdict"] == "DISCARDED":
                assert record["citations"]


class TestClassify:
    def test_rank23(self, capsys):
        code, out = run(capsys, "classify", "--rank", "23", "--format", "json")
        assert code == 0
        report = json.loads(out)
        status = {h["invertibles"]: h["status"] for h in report["hypotheses"]}
        assert status[23] == "SURVIVING"      # pointed
        assert status[1] == "DISCARDED"       # empty perfect search
        assert all(v == "DISCARDED" for s, v in status.items() if 1 < s < 23)
        for h in report["hypotheses"]:
            if h["status"] == "DISCARDED":
                assert h["citations"]

    def test_statuses_pinned(self, classify_reports):
        got = {rank: {h["invertibles"]: h["status"] for h in report["hypotheses"]}
               for rank, report in classify_reports.items()}
        assert got == CLASSIFY_STATUS

    def test_discard_citations_pinned(self, classify_reports):
        got = {(rank, h["invertibles"]): h["citations"]
               for rank, report in classify_reports.items()
               for h in report["hypotheses"] if h["status"] == "DISCARDED"}
        assert got == CLASSIFY_DISCARD_CITATIONS

    def test_paper_claims_open_cells(self, classify_reports):
        status = {(rank, h["invertibles"]): h["status"]
                  for rank, report in classify_reports.items()
                  for h in report["hypotheses"]}
        excused = {rank: set(s) for ranks, s in PAPER_CLAIMS.values() for rank in ranks}
        claimed = {(rank, s) for rank, s in status
                   if rank in excused and 1 < s < rank and s not in excused[rank]}
        assert {rank for rank, _ in claimed} == set(excused)
        assert {cell for cell in claimed if status[cell] != D} == PAPER_OPEN_CELLS

    def test_one_definition_per_search(self, golden_tables):
        # a search a golden table holds is named by its id, never restated
        for (rank, s), (search, _) in cli.CLASSIFY_TABLE.items():
            if isinstance(search, str):
                params = golden_tables[search].params
                assert (params.rank, params.invertibles) == (rank, s)
            else:
                params = SearchParams(rank=rank, invertibles=s, **search)
                assert all(t.params != params for t in golden_tables.values())

    def test_named_rows_are_the_tables_rows(self, classify_reports, golden_tables):
        hyp = {(rank, h["invertibles"]): h
               for rank, report in classify_reports.items() for h in report["hypotheses"]}
        trail = [item["solution"] for item in hyp[25, 3]["filter_trail"]]
        assert trail == [cli._sol_record(r, 3) for r in golden_tables["T1"].rows]
        assert hyp[41, 5]["solutions"] == [cli._sol_record(r, 5) for r in golden_tables["T3"].rows]

    def test_rank25_filter_trail_pinned(self, classify_reports):
        (hyp,) = (h for h in classify_reports[25]["hypotheses"] if h["invertibles"] == 3)
        steps = [item["steps"] for item in hyp["filter_trail"]]
        canonical = json.dumps(steps, sort_keys=True, separators=(",", ":"))
        last = [(s[-1]["filter"], s[-1].get("detail", s[-1].get("verdict"))) for s in steps]
        assert last == RANK25_TRAIL_LAST
        assert hashlib.sha256(canonical.encode()).hexdigest() == RANK25_TRAIL_SHA256

    def test_md_rank17(self, capsys):
        assert run(capsys, "classify", "--rank", "17") == (0, RANK17_MD)

    @pytest.mark.parametrize("rank, table_id, trail", [(25, "T1", True), (41, "T3", False)])
    def test_md_lists_each_row(self, classify_reports, golden_tables, rank, table_id, trail):
        """One `- fpdim` line per table row: with its status and last citation
        under a chain (T1), bare for manual analysis (T3)."""
        out = io.StringIO()
        cli._emit_classify(classify_reports[rank], "md", out)
        lines = [line for line in out.getvalue().splitlines() if line.startswith("- fpdim")]
        rows = golden_tables[table_id].rows
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            head = f"- fpdim {row.fpdim} dims {list(row.dims)}"
            assert line.startswith(head + ": ") if trail else line == head
        if trail:
            assert lines[-1].endswith(": SURVIVING [rule:semidirect-product-divisibility]")

    def test_rank_out_of_range(self, capsys):
        assert cli.main(["classify", "--rank", "15"]) == 2
        assert cli.main(["classify", "--rank", "51"]) == 2
        assert cli.main(["classify", "--rank", "20"]) == 2


class TestOracleCheck:
    def test_match(self, capsys):
        code, out = run(capsys, "oracle-check", "--rank", "17", "--invertibles", "1",
                        "--fpdim-bound", "100000")
        assert code == 0
        assert "match" in out

    def test_leaves_no_cycle(self, capsys):
        """With the collector off, a whole `oracle-check` (search, oracle
        stream and diff) leaves nothing for it to free.  The parser is built
        first: argparse's own objects form cycles."""
        cli.build_parser()
        gc.collect()
        gc.disable()
        try:
            code, out = run(capsys, "oracle-check", "--rank", "25", "--invertibles", "3")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert (code, out) == (0, "match: 16 solutions with fpdim <= 1000000\n")

    def test_default_bound_reaches_search(self, capsys, monkeypatch):
        bounds = []

        def spy(params, jobs=1):
            bounds.append(params.fpdim_bound)
            return dimsearch.enumerate_solutions(params, jobs=jobs)

        monkeypatch.setattr(cli, "enumerate_solutions", spy)
        argv = ("oracle-check", "--rank", "33", "--invertibles", "1")
        default = run(capsys, *argv)
        assert default == run(capsys, *argv, "--fpdim-bound", "1000000")
        assert default == (0, "match: 1 solutions with fpdim <= 1000000\n")
        assert bounds == [10 ** 6, 10 ** 6]

    def test_mismatch_report(self, capsys, monkeypatch):
        extra = DimSolution(99999, (3,) * 11)

        def drop_first_add_extra(params, jobs=1):
            return dimsearch.enumerate_solutions(params, jobs=jobs)[1:] + [extra]

        monkeypatch.setattr(cli, "enumerate_solutions", drop_first_add_extra)
        first = dimsearch.enumerate_solutions(SearchParams(rank=25, invertibles=3,
                                                           fpdim_bound=10**5))[0]
        assert run(capsys, "oracle-check", "--rank", "25", "--invertibles", "3",
                   "--fpdim-bound", "100000") == (1, (
            "MISMATCH: 1 missing, 1 extra\n"
            f"  missing {first.fpdim} {list(first.dims)}\n"
            "  extra 99999 [3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]\n"))

    def test_oracle_list_never_built(self, capsys, monkeypatch):
        """The CLI streams the oracle's rows; it never asks for the whole list."""
        def refuse(params):
            raise AssertionError("oracle_enumerate called")

        monkeypatch.setattr(oracle, "oracle_enumerate", refuse)
        assert run(capsys, "oracle-check", "--rank", "25", "--invertibles", "3",
                   "--fpdim-bound", "1000000") == (
            0, "match: 16 solutions with fpdim <= 1000000\n")

    @pytest.mark.parametrize("invertibles, bound, error", [
        pytest.param("1", "0", "fpdim_bound must be positive", id="0"),
        pytest.param("1", "-7", "fpdim_bound must be positive", id="-7"),
        pytest.param("3", "2", "bound below the invertible count", id="below-invertibles"),
    ])
    def test_invalid_bound(self, capsys, invertibles, bound, error):
        code = cli.main(["oracle-check", "--rank", "17", "--invertibles", invertibles,
                         "--fpdim-bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


def test_second_main_leaves_no_cycle(capsys):
    """`main` builds one parser per process, so with the collector off a
    second call leaves nothing for it to free."""
    argv = ["gradings", "--rank", "19", "--invertibles", "3"]
    first = run(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        second = run(capsys, *argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert second == first


@pytest.mark.parametrize("argv", [
    ["dims", "--rank", "27", "--invertibles", "3", "--format", "xml"],
    ["adjoint-dims", "--rank", "45", "--gc", "3", "--adjoint-rank", "15",
     "--adjoint-invertibles", "3", "--format", "xml"],
    ["gradings", "--rank", "29", "--invertibles", "5", "--format", "xml"],
    ["classify", "--rank", "25", "--format", "csv"],
    ["verify-goldens", "--format", "md"],
    ["verify-goldens", "--format", "json"],
    ["oracle-check", "--rank", "17", "--invertibles", "1", "--format", "md"],
    ["oracle-check", "--rank", "17", "--invertibles", "1", "--format", "csv"],
])
def test_format_not_rendered_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


class TestVerifyGoldens:
    def test_reports_mismatch(self, capsys, monkeypatch):
        from oddmtc import goldens

        def fake_verify(table, jobs=1):
            return dimsearch.RowDiff(table.rows[:1], ())

        monkeypatch.setattr(goldens, "verify", fake_verify)
        monkeypatch.setattr(cli.goldens, "verify", fake_verify)
        code, out = run(capsys, "verify-goldens")
        assert code == 1
        assert "MISMATCH" in out
        assert "  missing " in out
        assert "0/8 tables match" in out

    def test_reports_all_match(self, capsys, monkeypatch, golden_tables):
        monkeypatch.setattr(cli.goldens, "verify", lambda table, jobs=1: RowDiff((), ()))
        want = "".join(f"{tid}: match ({len(golden_tables[tid].rows)} rows)\n"
                       for tid in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"))
        assert run(capsys, "verify-goldens") == (0, want + "8/8 tables match\n")
