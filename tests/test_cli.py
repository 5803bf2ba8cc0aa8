import csv
import io
import json

import pytest

from oddmtc import cli, dimsearch, gradings

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

    @pytest.mark.parametrize("flag, value", [
        ("--min-run", "0"), ("--min-run", "-1"), ("--min-run", "1"),
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

    monkeypatch.setattr(dimsearch, "Pool", no_pool)
    code = cli.main(argv + ["--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestAdjointDims:
    def test_rank45(self, capsys):
        code, out = run(capsys, "adjoint-dims", "--rank", "45", "--gc", "3",
                        "--adjoint-rank", "15", "--adjoint-invertibles", "3",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["2925", "333"]

    def test_adjoint_rank_exceeds_rank(self, capsys):
        code = cli.main(["adjoint-dims", "--rank", "5", "--gc", "5",
                         "--adjoint-rank", "15", "--adjoint-invertibles", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestGradings:
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

    @pytest.mark.parametrize("bound", ["0", "-7"])
    def test_invalid_bound(self, capsys, bound):
        code = cli.main(["oracle-check", "--rank", "17", "--invertibles", "1",
                         "--fpdim-bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


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
