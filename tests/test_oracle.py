import pytest

from oddmtc import oracle
from oddmtc.dimsearch import Mode, SearchParams, enumerate_solutions, validate_solution
from oddmtc.exactmath import squarefree_split


def check_equivalence(params, bound):
    search = enumerate_solutions(params)
    reference = oracle.oracle_enumerate(params, bound)
    diff = oracle.compare(search, reference, bound)
    assert diff.empty, (diff.missing, diff.extra)
    return reference


class TestOracleEnumerate:
    def test_matches_search_rank25(self):
        rows = check_equivalence(SearchParams(rank=25, invertibles=3, fpdim_bound=10**6), 10**6)
        assert len(rows) == 16  # the rank-25 arrays with fpdim below 1e6

    def test_matches_search_adjoint(self):
        params = SearchParams(rank=45, invertibles=3, mode=Mode.ADJOINT,
                              adjoint_rank=15, adjoint_invertibles=3, fpdim_bound=10**5)
        rows = check_equivalence(params, 10**5)
        assert [r.fpdim for r in rows] == [2925, 333]

    def test_matches_search_with_predicates(self):
        params = SearchParams(rank=41, invertibles=5, min_m1=25, m1_square=True,
                              fpdim_bound=10**6)
        check_equivalence(params, 10**6)

    def test_matches_search_min_run(self):
        params = SearchParams(rank=49, invertibles=5, mode=Mode.ADJOINT,
                              adjoint_rank=29, adjoint_invertibles=5,
                              min_m1=25, m1_square=True, min_run=5,
                              fpdim_bound=10**6)
        # one of these rows, above 10^5, ends in a forced min-run tail
        assert len(check_equivalence(params, 10**6)) == 13

    def test_matches_search_min_run_tail(self):
        """The min-run tail and final_node's L | d_k start, with the bound on."""
        total = 0
        for rank, s in [(25, 3), (27, 3), (33, 3), (35, 5), (41, 5)]:
            for run in range(2, 6):
                params = SearchParams(rank=rank, invertibles=s, min_run=run,
                                      fpdim_bound=10**5)
                total += len(check_equivalence(params, 10**5))
        assert total == 60

    def test_rows_validate(self):
        params = SearchParams(rank=25, invertibles=3, fpdim_bound=10**6)
        for row in oracle.oracle_enumerate(params, 10**6):
            validate_solution(row, params)

    def test_bound_below_invertibles_rejected(self):
        with pytest.raises(ValueError):
            oracle.oracle_enumerate(SearchParams(rank=25, invertibles=3), 2)


class TestUnsievedPath:
    """Bounds above 2*10^6 skip the sieve (`parts is None`)."""

    def test_sieve_matches_squarefree_split(self):
        limit = 10 ** 4
        parts = oracle._square_root_parts.__wrapped__(limit)  # leave the cache alone
        assert all(parts[n] == squarefree_split(n)[0] for n in range(1, limit + 1))

    @pytest.mark.parametrize("params, bound", [
        (SearchParams(rank=25, invertibles=3), 10 ** 5),
        (SearchParams(rank=45, invertibles=3, mode=Mode.ADJOINT,
                      adjoint_rank=15, adjoint_invertibles=3), 10 ** 5),
    ])
    def test_solve_fpdim_without_sieve(self, params, bound):
        parts = oracle._square_root_parts.__wrapped__(bound)
        fpdims = sorted({r.fpdim for r in oracle.oracle_enumerate(params, bound)})
        assert fpdims
        args = (params.layer_invertibles, params.group_order, params.k,
                params.perfect, 15 if params.perfect else 3)
        for fpdim in fpdims:
            sieved = oracle._solve_fpdim(fpdim, *args, parts, params)
            unsieved = oracle._solve_fpdim(fpdim, *args, None, params)
            assert sieved and unsieved == sieved


class TestSolveFpdimFirstCut:
    """`_solve_fpdim` returns early when k * root_part^2 < half; `_pick` run
    on the full divisor list must agree at every fpdim of the loop."""

    @pytest.mark.parametrize("params, bound", [
        (SearchParams(rank=25, invertibles=3), 10 ** 5),
        (SearchParams(rank=45, invertibles=3, mode=Mode.ADJOINT,
                      adjoint_rank=15, adjoint_invertibles=3), 10 ** 5),
    ])
    def test_equals_pick_on_full_divisors(self, params, bound):
        s, g, k = params.layer_invertibles, params.group_order, params.k
        floor = 15 if params.perfect else 3
        parts = oracle._square_root_parts.__wrapped__(bound)
        found = 0
        for fpdim in range(params.rank % 8, bound + 1, 8):
            want = []
            layer, r = divmod(fpdim, g)
            if not r and (layer - s) % 2 == 0:
                divisors = [d for d in oracle._odd_divisors_at_least(
                                squarefree_split(fpdim)[0], floor)
                            if (fpdim // (d * d)) % 2 == 1]
                oracle._pick(divisors, 0, k, (layer - s) // 2, [], want, fpdim, s, params)
            got = oracle._solve_fpdim(fpdim, s, g, k, params.perfect, floor, parts, params)
            assert got == want, fpdim
            found += len(got)
        assert found


class TestCompare:
    def test_reports_differences(self):
        params = SearchParams(rank=25, invertibles=3, fpdim_bound=10**5)
        rows = oracle.oracle_enumerate(params, 10**5)
        diff = oracle.compare(rows[1:], rows, 10**5)
        assert diff.missing == (rows[0],) and not diff.extra
        diff = oracle.compare(rows, rows[1:], 10**5)
        assert diff.extra == (rows[0],) and not diff.missing
        assert not oracle.compare(rows, rows, 10**5).missing
