from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oddmtc import oracle
from oddmtc.dimsearch import (DimSolution, SearchParams, canonical, diff_rows,
                               enumerate_solutions)
from oddmtc.exactmath import squarefree_split
from oddmtc.filters import fixed_dim_multiplicity_filter


def check_equivalence(params):
    search = enumerate_solutions(params)
    reference = oracle.oracle_enumerate(params)
    diff = oracle.compare(search, reference)
    assert diff.empty, (diff.missing, diff.extra)
    return reference


class TestOracleEnumerate:
    def test_matches_search_adjoint(self):
        params = SearchParams(rank=45, invertibles=3,
                              adjoint_rank=15, adjoint_invertibles=3, fpdim_bound=10**5)
        rows = check_equivalence(params)
        assert [r.fpdim for r in rows] == [2925, 333]

    def test_matches_search_with_predicates(self):
        params = SearchParams(rank=41, invertibles=5, min_m1=25, m1_square=True,
                              fpdim_bound=10**6)
        check_equivalence(params)

    def test_m1_exclude_spares_later_quotients(self):
        """`_pick` tests the m1 predicates on d_1 alone: rows that have the
        excluded value as a later quotient stay."""
        params = SearchParams(rank=25, invertibles=3, m1_exclude=frozenset({25}),
                              fpdim_bound=10**6)
        rows = check_equivalence(params)
        assert len(rows) == 16
        assert sum(25 in row.quotients[1:] for row in rows) == 11

    @pytest.mark.parametrize("rank, s, cop, size", [
        (19, 3, 9, 0), (19, 3, 15, 0), (17, 3, 25, 0), (25, 3, 25, 3), (27, 3, 15, 4),
        (49, 1, 15, 4)])
    def test_matches_search_composite_mi_coprime(self, rank, s, cop, size):
        """mi_coprime bounds each quotient w*u^2, so a composite P also
        rejects u with P not dividing u, e.g. 27 = 3*3^2 under P = 9.  At
        (49, 1) the perfect layer's prime-power filter and the mi_coprime
        filter act on one divisor list: 4 of its 86 rows pass P = 15."""
        params = SearchParams(rank=rank, invertibles=s, mi_coprime=cop, fpdim_bound=10**6)
        assert len(check_equivalence(params)) == size

    def test_matches_search_min_run(self):
        params = SearchParams(rank=49, invertibles=5, adjoint_rank=29, adjoint_invertibles=5,
                              min_m1=25, m1_square=True, min_run=5,
                              fpdim_bound=10**6)
        # one of these rows, above 10^5, ends in a forced min-run tail
        assert len(check_equivalence(params)) == 13

    def test_matches_search_min_run_tail(self):
        """The min-run tail and the p-batch rule in `_Engine.emit`, with the bound on."""
        total = 0
        for rank, s in [(25, 3), (27, 3), (33, 3), (35, 5), (41, 5)]:
            for run in range(2, 6):
                params = SearchParams(rank=rank, invertibles=s, min_run=run,
                                      fpdim_bound=10**5)
                total += len(check_equivalence(params))
        assert total == 60

    def test_matches_search_final_chain(self, engine_probe):
        """Adjoint searches with k = 1 and no min_run, and with k = L, where
        the run extension completes the root: final_chain closes every
        chain, and final_node sees no state."""
        total = 0
        for gc in (3, 5, 9, 15):
            for ai in (3, 9, 15, 25):
                for run in (None, 2, 3, 4, 5):
                    ar = ai + 2 * (run or 1)
                    params = SearchParams(rank=gc * ar, invertibles=gc,
                                          adjoint_rank=ar, adjoint_invertibles=ai,
                                          min_run=run, fpdim_bound=10**5)
                    total += len(check_equivalence(params))
        assert total == 100
        assert not any(states for states, _ in engine_probe.final_node.values())

    @pytest.mark.parametrize("rank, s, size", [(25, 3, 21), (33, 5, 211)])
    def test_matches_search_bound_4e6(self, rank, s, size):
        bound = 4 * 10 ** 6
        params = SearchParams(rank=rank, invertibles=s, fpdim_bound=bound)
        assert len(check_equivalence(params)) == size

    # `oracle_rows` raises when called, before the first row is asked for
    def test_bound_below_invertibles_rejected(self):
        for fn in (oracle.oracle_enumerate, oracle.oracle_rows):
            with pytest.raises(ValueError, match="bound below the invertible count"):
                fn(SearchParams(rank=25, invertibles=3, fpdim_bound=2))

    def test_unbounded_params_rejected(self):
        for fn in (oracle.oracle_enumerate, oracle.oracle_rows):
            with pytest.raises(ValueError, match="fpdim bound"):
                fn(SearchParams(rank=25, invertibles=3))


class TestGoldenTablesUpToLargestRow:
    @pytest.mark.parametrize("table_id", ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"])
    def test_oracle_gives_the_table(self, golden_tables, table_id):
        """The oracle bounded by the table's largest fpdim, then the table's
        post filter, gives exactly the table's rows.  This certifies every
        row up to that fpdim; it says nothing about rows above it."""
        table = golden_tables[table_id]
        bound = max(row.fpdim for row in table.rows)
        rows = oracle.oracle_enumerate(replace(table.params, fpdim_bound=bound))
        if table.post_filter_p is not None:
            rows = [r for r in rows
                    if not fixed_dim_multiplicity_filter(r, table.post_filter_p).discard]
        diff = diff_rows(table.rows, rows)
        assert diff.empty, (diff.missing, diff.extra)


class TestCandidateFpdims:
    """`_candidate_fpdims` is exactly the set of fpdim values that pass the
    root-part cut of `_solve_fpdim`, here defined by brute force, largest
    first, each with an odd R >= dim_floor whose square divides it."""

    @pytest.mark.parametrize("params, size", [
        (SearchParams(rank=25, invertibles=3), 194),
        (SearchParams(rank=25, invertibles=1), 182),
        # only g > 1 catches a cap without the group order
        (SearchParams(rank=45, invertibles=3, adjoint_rank=15, adjoint_invertibles=3), 176),
        (SearchParams(rank=49, invertibles=5, adjoint_rank=29, adjoint_invertibles=5), 361),
    ])
    def test_equals_brute_definition(self, params, size):
        bound = 10 ** 5
        s, g, k = params.layer_invertibles, params.group_order, params.k
        floor = params.dmin
        want = []
        for fpdim in range(params.rank % 8, bound + 1, 8):
            rp = squarefree_split(fpdim)[0]
            if rp >= floor and fpdim <= g * (2 * k * rp * rp + s):
                want.append(fpdim)
        got = oracle._candidate_fpdims(replace(params, fpdim_bound=bound))
        assert [fpdim for fpdim, _ in got] == want[::-1]
        assert len(want) == size
        for fpdim, root in got:
            assert root % 2 == 1 and root >= floor and fpdim % (root * root) == 0, fpdim

    def test_empty_below_floor_squared(self):
        params = SearchParams(rank=25, invertibles=1, fpdim_bound=15 ** 2 - 1)
        assert oracle._candidate_fpdims(params) == []


class TestSolveFpdimFirstCut:
    """`_solve_fpdim` returns early when half != k (mod 8), as every d^2 = 1
    (mod 8), and when k * root_part^2 < half; `_pick` run on the full
    divisor list must agree at every fpdim = rank (mod 8), given any odd R
    with R^2 | fpdim, and `oracle_enumerate`, which visits only the
    candidates, must return what this full loop returns."""

    @pytest.mark.parametrize("params, bound", [
        (SearchParams(rank=25, invertibles=3), 10 ** 5),
        (SearchParams(rank=45, invertibles=3, adjoint_rank=15, adjoint_invertibles=3), 10 ** 5),
    ])
    def test_equals_pick_on_full_divisors(self, params, bound):
        s, g, k = params.layer_invertibles, params.group_order, params.k
        floor = params.dmin
        rows = []
        # fpdims that only the mod-8 cut returns early at
        mod8_cut = 0
        for fpdim in range(params.rank % 8, bound + 1, 8):
            want = []
            layer, r = divmod(fpdim, g)
            root_part = squarefree_split(fpdim)[0]
            if not r and (layer - s) % 2 == 0:
                half = (layer - s) // 2
                divisors = oracle._divisors_at_least(root_part, floor)
                want = list(oracle._pick(divisors, k, half, fpdim, params))
                mod8_cut += ((half - k) % 8 != 0 and half >= k * floor * floor
                             and k * root_part * root_part >= half)
            # every odd R with R^2 | fpdim gives the same root part
            for root in oracle._divisors_at_least(root_part, 1):
                got = list(oracle._solve_fpdim(fpdim, root, params))
                assert got == want, (fpdim, root)
            rows.extend(want)
        assert rows and mod8_cut
        bounded = replace(params, fpdim_bound=bound)
        assert oracle.oracle_enumerate(bounded) == canonical(rows)


class TestCompare:
    def test_reports_differences(self):
        params = SearchParams(rank=25, invertibles=3, fpdim_bound=10**5)
        rows = oracle.oracle_enumerate(params)
        diff = oracle.compare(rows[1:], rows)
        assert diff.missing == (rows[0],) and not diff.extra
        diff = oracle.compare(rows, rows[1:])
        assert diff.extra == (rows[0],) and not diff.missing
        assert oracle.compare(rows, rows).empty
        # compare filters nothing: a search row past the oracle's bound is extra
        wider = oracle.oracle_enumerate(replace(params, fpdim_bound=10**6))
        diff = oracle.compare(wider, rows)
        assert not diff.missing and diff.extra == tuple(r for r in wider[::-1] if r.fpdim > 10**5)


class TestStreamedDiff:
    """`diff_rows` walks both canonical sides once, in step, so either may be
    the oracle's stream, and holds neither."""

    ROWS = st.lists(st.builds(DimSolution, st.integers(1, 40),
                              st.lists(st.integers(3, 9), min_size=1, max_size=3).map(tuple)),
                    unique=True, max_size=12)

    @given(pool=ROWS, pick=st.lists(st.integers(0, 3), min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_equals_set_difference(self, pool, pick):
        # each pooled row goes to neither side, want only, got only or both
        want = canonical(row for row, side in zip(pool, pick) if side & 1)
        got = canonical(row for row, side in zip(pool, pick) if side & 2)
        order = lambda row: (row.fpdim, row.dims)  # noqa: E731
        diff = diff_rows(iter(want), iter(got))
        assert diff.missing == tuple(sorted(set(want) - set(got), key=order))
        assert diff.extra == tuple(sorted(set(got) - set(want), key=order))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_empty_exactly_when_equal(self, data):
        """In any order, copies included, the diff is empty exactly when the
        two sequences are equal."""
        row = st.builds(DimSolution, st.integers(1, 3),
                        st.lists(st.integers(3, 5), min_size=1, max_size=2).map(tuple))
        want = data.draw(st.lists(row, max_size=6))
        got = data.draw(st.just(want) | st.permutations(want) | st.lists(row, max_size=6))
        assert diff_rows(iter(want), iter(got)).empty == (got == want)

    def test_reads_got_at_most_one_row_ahead(self):
        """On equal canonical sides `got` is read at most one row ahead of
        `want`, so neither side is held."""
        rows = oracle.oracle_enumerate(SearchParams(rank=25, invertibles=3, fpdim_bound=10**5))
        read = [0, 0]
        lead = []

        def counted(side):
            for row in rows:
                read[side] += 1
                lead.append(read[1] - read[0])
                yield row

        assert diff_rows(counted(0), counted(1)).empty
        assert read == [len(rows)] * 2 and max(lead) == 1

    def test_second_copy_in_stream_is_missing(self):
        row, other = DimSolution(33, (3, 3)), DimSolution(41, (5,))
        diff = diff_rows(iter([other, row, row]), [other, row])
        assert diff.missing == (row,) and not diff.extra

    def test_second_copy_in_got_is_extra(self):
        """No search yields a second copy (`enumerate_solutions` raises on
        one), but the diff lists it rather than folding it away."""
        row, other = DimSolution(33, (3, 3)), DimSolution(41, (5,))
        diff = diff_rows([other, row], iter([other, row, row]))
        assert diff.extra == (row,) and not diff.missing

    @pytest.fixture
    def built(self, monkeypatch):
        """The fpdim of each row `oracle` builds, in order."""
        out = []

        def counted(fpdim, dims):
            out.append(fpdim)
            return DimSolution(fpdim, dims)

        monkeypatch.setattr(oracle, "DimSolution", counted)
        return out

    def test_oracle_rows_stream_one_row_at_a_time(self, built):
        """Fpdim 893,025 holds 10,980 of the 13,187 rows of (49, 5) up to
        10^6; its first rows come out of `oracle_rows` when only a few of
        its rows are built, not all of them."""
        stream = oracle.oracle_rows(SearchParams(rank=49, invertibles=5, fpdim_bound=10**6))
        before = 0
        for row in stream:
            if row.fpdim == 893025:
                break
            before = len(built)
        taken = [row] + [next(stream) for _ in range(9)]
        assert {row.fpdim for row in taken} == {893025}
        assert len(built) - before < 100
        assert len(taken) + sum(row.fpdim == 893025 for row in stream) == 10980

    def test_mi_coprime_builds_only_yielded_rows(self, built):
        """mi_coprime filters each fpdim's divisors, so with min_run unset
        every row `oracle_rows` builds is yielded: at (49, 5) up to 10^6,
        P = 15 keeps 189 of the 13,187 rows."""
        params = SearchParams(rank=49, invertibles=5, mi_coprime=15, fpdim_bound=10**6)
        assert len(list(oracle.oracle_rows(params))) == len(built) == 189

    @pytest.mark.parametrize("params", [
        SearchParams(rank=25, invertibles=3, fpdim_bound=10**6),
        # T6's layer
        SearchParams(rank=45, invertibles=3, adjoint_rank=15, adjoint_invertibles=3,
                     fpdim_bound=10**5),
        SearchParams(rank=33, invertibles=1, fpdim_bound=4 * 10**6),
    ], ids=["basic", "adjoint", "perfect"])
    def test_oracle_rows_ascend(self, params):
        """The stream ascends by `DimSolution.sort_key`: it is in canonical
        order, and `oracle_enumerate` is that stream as a list."""
        rows = list(oracle.oracle_rows(params))
        assert rows and rows == oracle.oracle_enumerate(params) == canonical(rows)
