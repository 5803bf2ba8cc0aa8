import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oddmtc import filters
from oddmtc.dimsearch import DimSolution
from oddmtc.filters import Verdict
from oddmtc.gradings import GradingCase

from t1_reference import T1_ROWS

RANK25_CASE = GradingCase((19, 3, 3), 25, 3)


def t1_solution(row_number: int) -> DimSolution:
    fpdim, dims = T1_ROWS[row_number - 1]
    return DimSolution(fpdim, 3, dims, tuple(fpdim // (d * d) for d in dims))


class TestFixedDimMultiplicity:
    def test_discards(self):
        # dim 19 appears twice in the full multiset; 2 % 6 != 0 and 3 does not divide 19
        sol = t1_solution(1)
        verdict = filters.fixed_dim_multiplicity_filter(sol, 3)
        assert verdict.discard and verdict.citation == filters.CITE_FIXED_DIM

    def test_passes(self):
        assert not filters.fixed_dim_multiplicity_filter(t1_solution(34), 3).discard

    def test_p_divisible_values_unconstrained(self):
        sol = DimSolution(99, 1, (3,), (11,))
        assert not filters.fixed_dim_multiplicity_filter(sol, 3).discard


class TestDeequiv:
    def test_profiles_forced_nonfixed(self):
        # dims not divisible by p must be fully non-fixed
        profiles = filters.deequiv_profiles((7, 7, 7, 3, 3, 3, 3, 3, 3, 3, 3), 3, 441)
        assert profiles
        for pr in profiles:
            assert 7 not in pr.fixed_dims
            assert pr.deequiv_fpdim == 147

    def test_profiles_reject_bad_multiplicity(self):
        # one dual pair of dim 5: two objects, not a multiple of 2p
        assert filters.deequiv_profiles((5,), 3, 51) == []

    def test_profile_bookkeeping(self):
        profiles = filters.deequiv_profiles((3, 3, 3), 3, 19 * 3)
        assert len(profiles) == 2  # zero or three non-fixed pairs
        for pr in profiles:
            assert len(pr.fixed_dims) + 3 * len(pr.nonfixed_orbit_dims) == 6

    def test_solution_filter_requires_divisibility(self):
        with pytest.raises(ValueError):
            filters.deequiv_profiles((3, 3), 3, 25)


class TestChainOnTable1:
    """Structural-filter behavior on the rank-25, 3-invertible arrays,
    referenced by their position in the fixed ordering of t1_reference."""

    def test_reference_list_matches_golden(self, golden_tables):
        got = {(r.fpdim, r.dims) for r in golden_tables["T1"].rows}
        assert got == set(T1_ROWS)
        assert len(T1_ROWS) == 35

    def test_uniformity_discards_row_35_only(self):
        discards = [
            i for i in range(1, 36)
            if filters.outside_dim_uniformity(t1_solution(i), RANK25_CASE).discard
        ]
        assert discards == [35]

    def test_fixed_dim_survivor_set(self):
        survivors = [
            i for i in range(1, 35)
            if not filters.fixed_dim_multiplicity_filter(t1_solution(i), 3).discard
        ]
        assert survivors == [9, 26, 27, 28, 29, 31, 32, 33, 34]

    def test_deequiv_discards(self):
        discards = [
            i for i in (9, 26, 27, 28, 29, 31, 32, 33, 34)
            if filters.deequiv_solution_filter(
                t1_solution(i).dims, 3, t1_solution(i).fpdim).discard
        ]
        assert discards == [26, 27, 29, 31, 33]

    def test_dual_product_discards_row_9(self):
        for i in (9, 28, 32, 34):
            sol = t1_solution(i)
            non_div = [d for d in sol.dims if d % 3]
            verdict = filters.dual_product_feasible(sorted(set(sol.dims)), min(non_div))
            assert verdict.discard == (i == 9)

    def test_row_34_survives_everything(self):
        sol = t1_solution(34)
        assert not filters.outside_dim_uniformity(sol, RANK25_CASE).discard
        assert not filters.fixed_dim_multiplicity_filter(sol, 3).discard
        assert not filters.component_packing_feasible(sol, RANK25_CASE).discard
        assert not filters.deequiv_solution_filter(sol.dims, 3, sol.fpdim).discard
        assert not filters.dual_product_feasible(sorted(set(sol.dims)), 7).discard
        assert not filters.forced_pointed(sol.fpdim)
        assert filters.semidirect_condition(3, 7, 2)


class TestPacking:
    def test_feasible(self):
        assert not filters.component_packing_feasible(t1_solution(34), RANK25_CASE).discard

    def test_infeasible_by_divisibility(self):
        sol = DimSolution(25, 1, (3,), (25 // 9,))
        case = GradingCase((1, 1, 1), 3, 3)
        # 3 does not divide 25
        assert filters.component_packing_feasible(sol, case).discard

    def test_infeasible_by_partition(self):
        # fpdim 75, rank-1 components need a single object of squared dim 25,
        # but the multiset holds only dims 3 and 1
        sol = DimSolution(75, 3, (3, 3, 3, 3), ())
        case = GradingCase((9, 1, 1), 11, 3)
        assert filters.component_packing_feasible(sol, case).discard


class TestDualProduct:
    def test_examples(self):
        assert filters.dual_product_feasible([3, 7], 7).verdict is Verdict.PASS
        assert filters.dual_product_feasible([5], 5).discard

    @given(coins=st.lists(st.integers(3, 25).map(lambda x: x | 1), min_size=1,
                          max_size=4, unique=True),
           d=st.integers(3, 15).map(lambda x: x | 1))
    @settings(max_examples=150, deadline=None)
    def test_against_bruteforce(self, coins, d):
        cap = (d * d - 1) // 2
        usable = sorted(c for c in set(coins) if c <= cap)
        reachable = {0}
        for c in usable:
            for base in sorted(reachable):
                v = base + c
                while v <= cap:
                    reachable.add(v)
                    v += c
        expected = cap in reachable
        assert filters.dual_product_feasible(coins, d).discard == (not expected)


class TestNumberTheoryFilters:
    def test_forced_pointed(self):
        assert filters.forced_pointed(15)       # squarefree
        assert filters.forced_pointed(81 * 5)   # 3^4 * 5
        assert not filters.forced_pointed(3**5 * 5)
        assert not filters.forced_pointed(441)  # two squared primes
        assert not filters.forced_pointed(2025)
        with pytest.raises(ValueError):
            filters.forced_pointed(12)

    def test_semidirect_condition(self):
        assert filters.semidirect_condition(3, 7, 2)   # 3 | 7 - 1
        assert filters.semidirect_condition(5, 11, 1)  # 5 | 11 - 1
        assert not filters.semidirect_condition(3, 5, 4)
        assert not filters.semidirect_condition(5, 3, 4)
        with pytest.raises(ValueError):
            filters.semidirect_condition(3, 3, 2)
        with pytest.raises(ValueError):
            filters.semidirect_condition(2, 7, 2)
        with pytest.raises(ValueError):
            filters.semidirect_condition(3, 7, 5)

    def test_semidirect_model(self):
        assert filters.semidirect_model(t1_solution(34), RANK25_CASE).verdict is Verdict.PASS
        assert filters.semidirect_model(DimSolution(3**2 * 5**4, 3, (), ())) is None
        assert filters.semidirect_model(DimSolution(3 * 5 * 7, 3, (), ())) is None
        assert filters.semidirect_model(DimSolution(3**2 * 7**5, 3, (), ())) is None


class TestFullMultiset:
    def test_doubles_pairs_and_adds_invertibles(self):
        assert filters.full_multiset((3,), 3) == [3, 3, 1, 1, 1]
