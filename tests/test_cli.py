import csv
import io
import json

import pytest

from oddmtc import cli


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


class TestAdjointDims:
    def test_rank45(self, capsys):
        code, out = run(capsys, "adjoint-dims", "--rank", "45", "--gc", "3",
                        "--adjoint-rank", "15", "--adjoint-invertibles", "3",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["2925", "333"]


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


class TestVerifyGoldens:
    def test_reports_mismatch(self, capsys, monkeypatch):
        from oddmtc import goldens

        def fake_verify(table, jobs=1):
            return goldens.GoldenDiff(table.table_id, table.rows[:1], ())

        monkeypatch.setattr(goldens, "verify", fake_verify)
        monkeypatch.setattr(cli.goldens, "verify", fake_verify)
        code, out = run(capsys, "verify-goldens")
        assert code == 1
        assert "MISMATCH" in out
        assert "0/8 tables match" in out
