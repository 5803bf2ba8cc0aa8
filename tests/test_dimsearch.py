import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oddmtc import filters, oracle
from oddmtc.dimsearch import (
    DimSolution,
    InvariantError,
    Mode,
    SearchParams,
    _Engine,
    _finish,
    _min_run_ok,
    _square_divisor_roots,
    diff_rows,
    enumerate_solutions,
    m1_candidates,
    validate_solution,
)
from oddmtc.exactmath import factorize, isqrt_exact

SRC = Path(__file__).resolve().parent.parent / "src"
RANK27 = SearchParams(rank=27, invertibles=3, min_m1=5)


def next_level(
    c_prev: Fraction, u_prev: int, remaining: int, params: SearchParams
) -> list[tuple[int, Fraction]]:
    """Admissible (u_next, c_next) continuations from state (c_prev, u_prev),
    computed with Fractions as a reference for the engine's integer scan."""
    s = params.layer_invertibles
    # u^2 <= s*u_prev^2/(t*c_prev) + 2*remaining*u_prev^2/c_prev
    upper = (Fraction(s, params.t) + 2 * remaining) * u_prev * u_prev / c_prev
    out = []
    u = u_prev
    while u * u <= upper:
        c_next = c_prev * u * u / (u_prev * u_prev) - 2
        if c_next > 0 and (not params.mi_coprime or u % params.mi_coprime != 0):
            out.append((u, c_next))
        u += 2
    return out


def _final_node_reference(eng: _Engine, A: int, B: int, u: int, path) -> list[DimSolution]:
    """Completions of a rem = 1 state by an unbounded scan: every d with
    d^2 | s*B*u^2, factored from scratch, tested by exact division."""
    u2 = u * u
    target = eng.s * B * u2
    roots = [1]
    for p, e in factorize(target).factors:
        roots = [r * p**a for r in roots for a in range(e // 2 + 1)]
    out = []
    for d in roots:
        if d < eng.dmin:
            continue
        q, r = divmod(target // (d * d) + 2 * B * u2, A)
        if r:
            continue
        up, square = isqrt_exact(q)
        if not square or up < u or up % 2 == 0 or (eng.cop and up % eng.cop == 0):
            continue
        sol = _finish(path + (up,), d, eng.w, eng.params)
        if sol is not None:
            out.append(sol)
    return out


class TestSearchParams:
    def test_basic_derived(self):
        p = SearchParams(rank=25, invertibles=3)
        assert (p.layer_invertibles, p.group_order, p.k, p.perfect, p.t) == (3, 1, 11, False, 9)
        assert p.dmin == 3

    def test_perfect_derived(self):
        p = SearchParams(rank=23, invertibles=1)
        assert (p.k, p.perfect, p.t, p.dmin) == (11, True, 225, 15)

    def test_adjoint_derived(self):
        p = SearchParams(rank=49, invertibles=5, mode=Mode.ADJOINT,
                         adjoint_rank=29, adjoint_invertibles=5)
        assert (p.layer_invertibles, p.group_order, p.k) == (5, 5, 12)

    @pytest.mark.parametrize("kwargs", [
        dict(rank=24, invertibles=3),
        dict(rank=25, invertibles=4),
        dict(rank=25, invertibles=25),
        dict(rank=25, invertibles=3, min_m1=0),
        dict(rank=49, invertibles=5, mode=Mode.ADJOINT),
        dict(rank=49, invertibles=5, mode=Mode.ADJOINT, adjoint_rank=29,
             adjoint_invertibles=29),
        dict(rank=25, invertibles=3, min_run=1),
        dict(rank=25, invertibles=3, min_run=0),
        dict(rank=25, invertibles=3, min_run=-1),
        dict(rank=25, invertibles=3, mi_coprime=1),
        dict(rank=25, invertibles=3, mi_coprime=0),
        dict(rank=25, invertibles=3, fpdim_bound=0),
        dict(rank=25, invertibles=3, fpdim_bound=-5),
        dict(rank=5, invertibles=5, mode=Mode.ADJOINT, adjoint_rank=15,
             adjoint_invertibles=3),
        dict(rank=5, invertibles=5, mode=Mode.ADJOINT, adjoint_rank=5,
             adjoint_invertibles=3),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SearchParams(**kwargs)

    @given(rank=st.integers(-3, 60), invertibles=st.integers(-3, 60),
           mode=st.sampled_from(Mode),
           adjoint_rank=st.none() | st.integers(-3, 60),
           adjoint_invertibles=st.none() | st.integers(-3, 60),
           min_m1=st.integers(-2, 30),
           min_run=st.none() | st.integers(-3, 8),
           mi_coprime=st.none() | st.integers(-3, 8),
           fpdim_bound=st.none() | st.integers(-5, 10**7))
    @settings(max_examples=600, deadline=None)
    def test_rejects_exactly_invalid_kwargs(self, **kwargs):
        rank, s = kwargs["rank"], kwargs["invertibles"]
        ar, ai = kwargs["adjoint_rank"], kwargs["adjoint_invertibles"]
        if kwargs["mode"] is Mode.BASIC:
            # the adjoint kwargs are ignored
            layer_invalid, k = False, (rank - s) // 2
        else:
            layer_invalid = (ar is None or ai is None or ai < 1
                             or ar % 2 == 0 or ai % 2 == 0 or ar <= ai or ar > rank)
            k = None if layer_invalid else (ar - ai) // 2
        invalid = (
            rank < 1 or rank % 2 == 0 or s < 1 or s % 2 == 0 or rank <= s or layer_invalid
            or kwargs["min_m1"] < 1
            or (kwargs["min_run"] is not None and kwargs["min_run"] < 2)
            or (kwargs["mi_coprime"] is not None and kwargs["mi_coprime"] < 2)
            or (kwargs["fpdim_bound"] is not None and kwargs["fpdim_bound"] < 1)
        )
        if invalid:
            with pytest.raises(ValueError):
                SearchParams(**kwargs)
        else:
            assert SearchParams(**kwargs).k == k


class TestM1Candidates:
    def test_rank25(self):
        assert m1_candidates(SearchParams(rank=25, invertibles=3)) == [9, 17]

    def test_tiny_perfect_empty(self):
        assert m1_candidates(SearchParams(rank=3, invertibles=1)) == []

    def test_adjoint(self):
        p = SearchParams(rank=35, invertibles=3, mode=Mode.ADJOINT,
                         adjoint_rank=17, adjoint_invertibles=3)
        assert m1_candidates(p) == [3, 11, 19, 27, 35, 43]

    def test_predicates(self):
        p = SearchParams(rank=49, invertibles=5, mode=Mode.ADJOINT,
                         adjoint_rank=29, adjoint_invertibles=5)
        base = m1_candidates(p)
        squares = m1_candidates(SearchParams(rank=49, invertibles=5, mode=Mode.ADJOINT,
                                             adjoint_rank=29, adjoint_invertibles=5,
                                             m1_square=True))
        assert set(squares) <= set(base)
        assert all(int(m**0.5 + 0.5) ** 2 == m for m in squares)
        excl = m1_candidates(SearchParams(rank=49, invertibles=5, mode=Mode.ADJOINT,
                                          adjoint_rank=29, adjoint_invertibles=5,
                                          m1_square=True, m1_exclude=frozenset({49})))
        assert set(squares) - set(excl) == {49}
        cop = m1_candidates(SearchParams(rank=49, invertibles=5, mode=Mode.ADJOINT,
                                         adjoint_rank=29, adjoint_invertibles=5,
                                         mi_coprime=5))
        assert all(m % 5 for m in cop)

    def test_all_congruent_to_rank(self):
        for rank, s in ((25, 3), (41, 5), (47, 15)):
            p = SearchParams(rank=rank, invertibles=s)
            assert all(m % 8 == rank % 8 and m % 2 == 1 for m in m1_candidates(p))


class TestNextLevel:
    def test_worked_example(self):
        p = SearchParams(rank=25, invertibles=3)
        out = next_level(Fraction(7), 3, 10, p)
        assert out == [(3, Fraction(5)), (5, Fraction(157, 9))]

    @given(c_num=st.integers(1, 50), u=st.integers(1, 15).map(lambda x: 2 * x + 1),
           rem=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_and_bounds(self, c_num, u, rem):
        p = SearchParams(rank=25, invertibles=3)
        c = Fraction(c_num, 3)
        for un, cn in next_level(c, u, rem, p):
            assert un >= u and un % 2 == 1
            assert cn == c * un * un / (u * u) - 2
            assert cn > 0
            # upper bound: next state keeps the budget non-negative
            assert un * un * c <= (Fraction(3, 9) + 2 * rem) * u * u


class TestSquareDivisorRoots:
    @given(fac=st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 6)),
                        max_size=4, unique_by=lambda pe: pe[0]),
           hi=st.integers(0, 3000))
    @settings(max_examples=300, deadline=None)
    def test_bounded_roots(self, fac, hi):
        n = math.prod(p**e for p, e in fac)
        roots = _square_divisor_roots(fac, hi)
        want = [d for d in range(1, min(hi, math.isqrt(n)) + 1) if n % (d * d) == 0]
        assert roots == want


class TestFinalNode:
    # with min_run = L, final_node confines d_k to multiples of L unless
    # r + 1 = 0 mod L; the reference factors target whole and filters in _finish
    @pytest.mark.parametrize("table", ["rank27", "T2", "T4", "T6", "T7",
                                       "T7-min_run2", "T7-min_run3", "T7-min_run4",
                                       "T7-min_run5", "T4-min_run3"])
    def test_matches_unbounded_scan(self, table, golden_tables, monkeypatch):
        table, _, run = table.partition("-min_run")
        p = RANK27 if table == "rank27" else golden_tables[table].params
        if run:
            p = replace(p, min_run=int(run))
        bounded = _Engine.final_node
        calls = emitted = 0

        def checked(eng, A, B, u, path):
            nonlocal calls, emitted
            start = len(eng.out)
            bounded(eng, A, B, u, path)
            got = sorted(eng.out[start:], key=DimSolution.sort_key)
            want = sorted(_final_node_reference(eng, A, B, u, path), key=DimSolution.sort_key)
            assert got == want, (A, B, u, path)
            calls += 1
            emitted += len(got)

        monkeypatch.setattr(_Engine, "final_node", checked)
        enumerate_solutions(p)
        assert calls and emitted


class TestMinRunPredicate:
    def test_qualifying(self):
        assert _min_run_ok((7, 7, 7, 7, 7, 5, 5, 5, 5, 5), 5)
        assert _min_run_ok((9, 9, 9, 9, 9, 5, 5), 5)
        assert _min_run_ok((45, 15, 5, 3, 3, 3, 3, 3), 5)

    def test_rejected(self):
        # leftover value 7 is neither divisible by 5 nor in a group of 5
        assert not _min_run_ok((15, 15, 15, 15, 15, 7, 7), 5)
        # no value reaches the run length at all
        assert not _min_run_ok((15, 15, 15, 5, 5), 5)


class TestEnumerateSolutions:
    def test_rank27_pinpoint(self):
        sols = enumerate_solutions(RANK27)
        assert len(sols) == 1
        assert sols[0].fpdim == 2475
        assert sols[0].dims == (15, 15, 15, 15, 15, 5, 5, 5, 3, 3, 3, 3)

    def test_adjoint_rank45(self):
        p = SearchParams(rank=45, invertibles=3, mode=Mode.ADJOINT,
                         adjoint_rank=15, adjoint_invertibles=3)
        sols = enumerate_solutions(p)
        assert [(s.fpdim, s.dims) for s in sols] == [
            (2925, (15, 15, 3, 3, 3, 3)),
            (333, (3, 3, 3, 3, 3, 3)),
        ]

    def test_canonical_order_and_quotients(self, rank25_solutions):
        sols = rank25_solutions
        assert sols == sorted(sols, key=DimSolution.sort_key)
        for s in sols:
            assert s.quotients == tuple(s.fpdim // (d * d) for d in s.dims)
            assert list(s.quotients) == sorted(s.quotients)

    def test_jobs_equivalence(self):
        assert enumerate_solutions(RANK27, jobs=1) == enumerate_solutions(RANK27, jobs=2)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError):
            enumerate_solutions(RANK27, jobs=jobs)

    @pytest.mark.parametrize("case", ["rank25", "rank27", "T2", "T4", "T6", "T7",
                                      "T4-min_run3"])
    def test_fpdim_bound_restricts(self, case, request, golden_tables):
        """Every row's fpdim, and one below it, as the bound (rank 25: the rows
        up to 10^5): the search gives exactly the unbounded rows under it."""
        if case == "rank25":
            p = SearchParams(rank=25, invertibles=3)
        elif case == "rank27":
            p = RANK27
        elif case == "T4-min_run3":
            p = replace(golden_tables["T4"].params, min_run=3)
        else:
            p = golden_tables[case].params
        rows = ([r for r in request.getfixturevalue("rank25_solutions") if r.fpdim <= 10**5]
                if case == "rank25" else enumerate_solutions(p))
        assert rows
        for bound in sorted({b for r in rows for b in (r.fpdim, r.fpdim - 1)}):
            capped = enumerate_solutions(replace(p, fpdim_bound=bound))
            assert capped == [r for r in rows if r.fpdim <= bound], bound


class TestDiffRows:
    def test_missing_and_extra_in_key_order(self, rank25_solutions):
        rows = rank25_solutions
        diff = diff_rows(rows[2:], rows[:2] + rows[4:])
        assert diff.missing == (rows[3], rows[2]) and diff.extra == (rows[1], rows[0])
        assert not diff.empty
        assert diff_rows(rows, list(reversed(rows))).empty


class TestValidateSolution:
    def test_full_multiset(self):
        sol = DimSolution(441, 3, (7, 7, 7, 3, 3, 3, 3, 3, 3, 3, 3),
                          tuple(441 // (d * d) for d in (7,) * 3 + (3,) * 8))
        ms = filters.full_multiset(sol.dims, sol.invertibles)
        assert len(ms) == 25
        assert sum(d * d for d in ms) == sol.fpdim == 441

    def test_golden_rows_validate(self, golden_tables):
        for table in golden_tables.values():
            for row in table.rows:
                validate_solution(row, table.params)

    def test_tampered_rows_rejected(self, golden_tables):
        t1 = golden_tables["T1"]
        row = t1.rows[0]
        bad_fpdim = DimSolution(row.fpdim + 8, row.invertibles, row.dims, row.quotients)
        with pytest.raises(InvariantError):
            validate_solution(bad_fpdim, t1.params)
        bad_dims = DimSolution(row.fpdim, row.invertibles,
                               row.dims[:-1] + (row.dims[-1] + 2,), row.quotients)
        with pytest.raises(InvariantError):
            validate_solution(bad_dims, t1.params)

    def test_tampered_row_rejected_under_optimize(self):
        code = (
            "from dataclasses import replace\n"
            "from oddmtc import goldens\n"
            "from oddmtc.dimsearch import InvariantError, validate_solution\n"
            "assert False, 'assert statements are live'\n"
            "t1 = next(t for t in goldens.load_goldens() if t.table_id == 'T1')\n"
            "row = t1.rows[0]\n"
            "try:\n"
            "    validate_solution(replace(row, fpdim=row.fpdim + 8), t1.params)\n"
            "except InvariantError:\n"
            "    print('rejected')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "rejected\n"


class TestEngineAgainstOracle:
    def test_unbounded_search_matches_oracle(self, golden_tables):
        bound = 10**6
        searched = [golden_tables[t].params for t in ("T2", "T3", "T4", "T6", "T7")]
        # T8's m1=25 branch holds no rows and dominates its search time
        t8 = golden_tables["T8"].params
        searched.append(replace(t8, m1_exclude=t8.m1_exclude | {25}))
        checked = 0
        for p in searched:
            reference = oracle.oracle_enumerate(p, bound)
            diff = oracle.compare(enumerate_solutions(p), reference, bound)
            assert diff.empty, (p, diff.missing, diff.extra)
            checked += len(reference)
        assert checked == 39

    @pytest.mark.parametrize("table", ["rank27", "T2", "T4", "T6", "T7"])
    def test_min_run_equals_filtered_search(self, table, golden_tables):
        p = RANK27 if table == "rank27" else golden_tables[table].params
        plain = enumerate_solutions(p)
        for length in range(2, 6):
            want = [s for s in plain if _min_run_ok(s.dims, length)]
            assert enumerate_solutions(replace(p, min_run=length)) == want, length
