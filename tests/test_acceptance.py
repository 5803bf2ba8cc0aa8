"""End-to-end acceptance checks: exact table reproduction, filter-chain
behavior, oracle equivalence, and the randomized invariant suite, each with
its runtime budget."""

import json
import random
import time
from pathlib import Path

import pytest

from oddmtc import cli, filters, goldens, oracle
from oddmtc.dimsearch import (
    DimSolution,
    SearchParams,
    enumerate_solutions,
    validate_solution,
)
from oddmtc.exactmath import factorize, isqrt_exact, squarefree_split
from oddmtc.gradings import GradingCase, enumerate_cases, invertible_count_candidates

from t1_reference import T1_ROWS

# solution counts with fpdim <= 10^6 for every (rank, s), rank 17-49, s != rank
ORACLE_COUNTS = Path(__file__).resolve().parent.parent / "perfbench" / "oracle_counts.json"


def timed(budget_seconds):
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc[0] is None:
                assert self.elapsed < budget_seconds, (
                    f"runtime {self.elapsed:.1f}s exceeds budget {budget_seconds}s")

    return _Timer()


def keys(solutions):
    return {(s.fpdim, s.dims) for s in solutions}


class TestCriterion1Table1:
    def test_rank25_full_table(self, golden_tables):
        with timed(60):
            sols = enumerate_solutions(SearchParams(rank=25, invertibles=3))
        assert len(sols) == 35
        assert keys(sols) == keys(golden_tables["T1"].rows)


class TestCriterion2EmptyPerfect:
    def test_ranks_17_to_23(self):
        with timed(600):
            for rank in (17, 19, 21, 23):
                assert enumerate_solutions(SearchParams(rank=rank, invertibles=1)) == []


class TestCriterion3Rank27:
    def test_pinpoint(self):
        with timed(60):
            sols = enumerate_solutions(SearchParams(rank=27, invertibles=3, min_m1=5))
        assert [(s.fpdim, s.dims) for s in sols] == [
            (2475, (15, 15, 15, 15, 15, 5, 5, 5, 3, 3, 3, 3))]


class TestCriterion4Rank47:
    def test_empty(self):
        with timed(300):
            assert enumerate_solutions(SearchParams(rank=47, invertibles=15)) == []


class TestCriterion5AdjointTables:
    @pytest.mark.parametrize("table_id", ["T2", "T4", "T5", "T6", "T7"])
    def test_table(self, golden_tables, table_id):
        with timed(120):
            assert goldens.verify(golden_tables[table_id]).empty


class TestCriterion6PredicateRuns:
    def test_table3_cli(self, golden_tables, capsys):
        with timed(300):
            code = cli.main(["dims", "--rank", "41", "--invertibles", "5",
                             "--min-m1", "25", "--m1-square", "--format", "json"])
        assert code == 0
        self._assert_matches(capsys, golden_tables["T3"])

    def test_table7_cli(self, golden_tables, capsys):
        with timed(300):
            code = cli.main(["adjoint-dims", "--rank", "49", "--gc", "5",
                             "--adjoint-rank", "29", "--adjoint-invertibles", "5",
                             "--mi-coprime", "5", "--m1-square",
                             "--m1-exclude", "49", "--min-m1", "27",
                             "--format", "json"])
        assert code == 0
        self._assert_matches(capsys, golden_tables["T7"])

    def test_table8_cli(self, golden_tables, capsys):
        with timed(300):
            code = cli.main(["adjoint-dims", "--rank", "49", "--gc", "5",
                             "--adjoint-rank", "29", "--adjoint-invertibles", "5",
                             "--min-run", "5", "--m1-square", "--min-m1", "25",
                             "--format", "json"])
        assert code == 0
        self._assert_matches(capsys, golden_tables["T8"])

    @staticmethod
    def _assert_matches(capsys, table):
        rows = json.loads(capsys.readouterr().out)
        got = {(r["fpdim"], tuple(r["dims"])) for r in rows}
        assert got == keys(table.rows)


class TestCriterion7GradingCases:
    def test_case_lists(self):
        with timed(10):
            assert len(enumerate_cases(29, 5)) == 3
            assert len(enumerate_cases(33, 3)) == 3
            assert (7,) * 7 in [c.component_ranks for c in enumerate_cases(49, 7)]

    def test_filtered_spot_set(self, capsys):
        with timed(10):
            code = cli.main(["gradings", "--rank", "33", "--invertibles", "3",
                             "--apply-filters", "--format", "json"])
        assert code == 0
        records = {tuple(r["case"]): r for r in json.loads(capsys.readouterr().out)}
        assert records[(27, 3, 3)]["verdict"] == "SURVIVING"
        for case in ((19, 11, 3), (11, 11, 11)):
            assert records[case]["verdict"] == "DISCARDED"
            assert records[case]["citations"]


class TestCriterion8FilterChain:
    def test_chain(self):
        case = GradingCase((19, 3, 3))
        sols = {
            i: DimSolution(f, d)
            for i, (f, d) in enumerate(T1_ROWS, start=1)
        }
        with timed(10):
            uniformity = [i for i in sols
                          if filters.outside_dim_uniformity(sols[i], case).discard]
            assert uniformity == [35]
            fixed = [i for i in range(1, 35)
                     if not filters.fixed_dim_multiplicity_filter(sols[i], 3).discard]
            assert fixed == [9, 26, 27, 28, 29, 31, 32, 33, 34]
            deequiv = [i for i in fixed
                       if filters.deequiv_solution_filter(
                           sols[i].dims, 3, sols[i].fpdim).discard]
            assert deequiv == [26, 27, 29, 31, 33]
            dual = [i for i in fixed if i not in deequiv
                    and filters.dual_product_rule(sols[i], case).discard]
            assert dual == [9]
            # row 34 passes every step above, and the packing rule
            assert not filters.component_packing_feasible(sols[34], case).discard

    def test_classify_rank25_flags(self, classify_reports):
        graded = [h for h in classify_reports[25]["hypotheses"]
                  if h["kind"] == "graded" and h["invertibles"] == 3][0]
        surviving = {(s["fpdim"], tuple(s["dims"])) for s in graded["surviving"]}
        flagged = {(s["fpdim"], tuple(s["dims"])) for s in graded["needs_manual"]}
        row = lambda i: T1_ROWS[i - 1]
        assert row(34) in surviving
        assert surviving <= {row(28), row(32), row(34)}
        assert flagged <= {row(28), row(32)}


class TestCriterion9OracleEquivalence:
    def test_sweep(self):
        bound = 10**6
        pinned = json.loads(ORACLE_COUNTS.read_text("utf-8"))
        assert pinned["25,3"] == 16  # the rank-25 arrays with fpdim below 10^6
        swept = set()
        with timed(1800):
            for rank in range(17, 50, 2):
                for s in invertible_count_candidates(rank):
                    if s == rank:
                        continue  # pointed: no non-invertible simples to search
                    params = SearchParams(rank=rank, invertibles=s, fpdim_bound=bound)
                    search = enumerate_solutions(params)
                    reference = oracle.oracle_enumerate(params)
                    diff = oracle.compare(search, reference)
                    assert diff.empty, (rank, s, diff.missing[:3], diff.extra[:3])
                    assert len(reference) == pinned[f"{rank},{s}"], (rank, s)
                    swept.add(f"{rank},{s}")
        assert swept == set(pinned)


class TestCriterion10InvariantSuite:
    def test_solution_revalidations(self, golden_tables):
        rng = random.Random(20260825)
        pool = [(table.params, row)
                for table in golden_tables.values() for row in table.rows]
        extra_params = SearchParams(rank=33, invertibles=3, fpdim_bound=10**6)
        pool += [(extra_params, row) for row in enumerate_solutions(extra_params)]
        for _ in range(10**4):
            params, row = rng.choice(pool)
            validate_solution(row, params)

    def test_arithmetic_roundtrips(self):
        rng = random.Random(20260826)
        for _ in range(10**5):
            n = rng.randrange(1, 10**12)
            root, exact = isqrt_exact(n)
            assert root * root <= n < (root + 1) * (root + 1)
            assert exact == (root * root == n)
            u, w = squarefree_split(n % 10**6 + 1)
            m = n % 10**6 + 1
            assert u * u * w == m
            assert all(e == 1 for _, e in factorize(w))
