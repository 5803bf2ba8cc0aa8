import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oddmtc import cli, filters
from oddmtc.dimsearch import DimSolution
from oddmtc.gradings import (
    GRADING_FILTERS, GradingCase, enumerate_cases, invertible_count_candidates,
)

from t1_reference import T1_ROWS

RANK25_CASE = GradingCase((19, 3, 3))


def t1_solution(row_number: int) -> DimSolution:
    fpdim, dims = T1_ROWS[row_number - 1]
    return DimSolution(fpdim, dims)


class TestFixedDimMultiplicity:
    def test_discards(self):
        # dims 475, 19 and 5 each appear twice in the full multiset; 2 % 6 != 0
        # and 3 divides none of them; the detail names the smallest
        sol = t1_solution(1)
        verdict = filters.fixed_dim_multiplicity_filter(sol, 3)
        assert verdict.discard and verdict.citation == filters.CITE_FIXED_DIM
        assert verdict.detail == "dim 5 occurs 2 times; not 0 mod 6 and 3 does not divide it"

    def test_passes(self):
        assert not filters.fixed_dim_multiplicity_filter(t1_solution(34), 3).discard

    def test_p_divisible_values_unconstrained(self):
        sol = DimSolution(99, (3,))
        assert not filters.fixed_dim_multiplicity_filter(sol, 3).discard


def deequiv_reference(dims, p, fpdim) -> bool:
    """Brute force: try every non-fixed pair count 0..pairs per dim value,
    keep the counts the p-batch rule allows, build the quotient's objects
    and test its divisibility conditions."""
    q = fpdim // p
    counts = sorted(Counter(dims).items())
    for nonfixed in itertools.product(*(range(pairs + 1) for _, pairs in counts)):
        chosen = list(zip(counts, nonfixed))
        if any(nf % p or (nf < pairs and v % p) for (v, pairs), nf in chosen):
            continue
        objects = []  # the quotient's non-unit simple objects, both duals
        for (v, pairs), nf in chosen:
            objects += [v // p] * (2 * (pairs - nf) * p)  # each fixed object splits in p
            objects += [v] * (2 * nf // p)                 # one object per orbit
        if q % (1 + objects.count(1)) == 0 and all(q % (d * d) == 0 for d in objects):
            return True
    return False


class TestDeequiv:
    def test_bad_multiplicity_discards(self):
        # two dual pairs of dim 5 cannot form 3-orbits, and 3 does not divide 5;
        # ignoring that, the orbit dim 5 would pass (25 divides 75 / 3)
        verdict = filters.deequiv_solution_filter((5, 5), 3, 75)
        assert verdict.discard and verdict.citation == filters.CITE_DEEQUIV
        assert verdict.detail == "every fixed/non-fixed assignment fails"

    def test_forced_nonfixed_dims_square_divide(self):
        # dim 7 is not divisible by 3, so all its pairs are non-fixed: 7^2 | q
        assert not filters.deequiv_solution_filter((7, 7, 7), 3, 3 * 49).discard
        assert filters.deequiv_solution_filter((7, 7, 7), 3, 3 * 63).discard

    def test_two_assignments(self):
        # three pairs of dim 3: all fixed (1 + 2*3*3 = 19 invertibles must
        # divide q) or all non-fixed (one orbit dim 3, so 9 must divide q)
        dims = (3, 3, 3)
        assert not filters.deequiv_solution_filter(dims, 3, 3 * 19).discard
        assert not filters.deequiv_solution_filter(dims, 3, 3 * 9).discard
        assert filters.deequiv_solution_filter(dims, 3, 3 * 5).discard

    def test_solution_filter_requires_divisibility(self):
        with pytest.raises(ValueError):
            filters.deequiv_solution_filter((3, 3), 3, 25)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_against_bruteforce(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        values = data.draw(st.lists(st.sampled_from([3, 5, 7, 9, 15, 21, 25, 45]),
                                    min_size=1, max_size=3, unique=True))
        # mostly whole p-batches of pairs, sometimes one pair more
        dims = [v for v in values
                for _ in range(data.draw(st.sampled_from([0, p, 2 * p, 1, p + 1])))]
        fpdim = p * math.prod(data.draw(st.lists(
            st.sampled_from([3, 5, 7, 9, 11, 13, 19, 25, 31, 49]), max_size=5)))
        want = deequiv_reference(dims, p, fpdim)
        assert filters.deequiv_solution_filter(dims, p, fpdim).discard == (not want)


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
        # the rule tests the smallest dim 3 does not divide
        for i in (9, 28, 32, 34):
            assert filters.dual_product_rule(t1_solution(i), RANK25_CASE).discard == (i == 9)
        assert filters.dual_product_rule(DimSolution(81, (3, 9)), RANK25_CASE) is None

    def test_row_34_survives_everything(self):
        sol = t1_solution(34)
        assert not filters.outside_dim_uniformity(sol, RANK25_CASE).discard
        assert not filters.fixed_dim_multiplicity_filter(sol, 3).discard
        assert not filters.component_packing_feasible(sol, RANK25_CASE).discard
        assert not filters.deequiv_solution_filter(sol.dims, 3, sol.fpdim).discard
        assert not filters.dual_product_feasible(sorted(set(sol.dims)), 7).discard
        assert not filters.forced_pointed(sol.fpdim)
        assert filters.semidirect_condition(3, 7, 2)


class TestOutsideDimUniformity:
    """Under the case {19, 3, 3}, fpdim must be 3^2 * d^2 with 6 objects of dim d."""

    @pytest.mark.parametrize("fpdim, dims, detail", [
        (3 * 5**2, (5,), "3^2 does not divide fpdim"),
        (3**2 * 3 * 5**2, (15, 5), "fpdim/3^2 = 75 is not a perfect square"),
    ])
    def test_fpdim_discards(self, fpdim, dims, detail):
        verdict = filters.outside_dim_uniformity(DimSolution(fpdim, dims), RANK25_CASE)
        assert verdict.discard and verdict.detail == detail

    def test_no_verdict_without_an_adjoint(self):
        # three components of odd multiplicity: no adjoint rank to read
        assert filters.outside_dim_uniformity(t1_solution(34), GradingCase((19, 11, 3))) is None


class TestPacking:
    def test_feasible(self):
        assert not filters.component_packing_feasible(t1_solution(34), RANK25_CASE).discard

    def test_infeasible_by_divisibility(self):
        sol = DimSolution(25, (3,))
        case = GradingCase((1, 1, 1))
        # 3 does not divide 25
        assert filters.component_packing_feasible(sol, case).discard

    def test_infeasible_by_partition(self):
        # fpdim 75, rank-1 components need a single object of squared dim 25,
        # but the multiset holds only dims 3 and 1
        sol = DimSolution(75, (3, 3, 3, 3))
        case = GradingCase((9, 1, 1))
        assert filters.component_packing_feasible(sol, case).discard

    def test_infeasible_after_full_fills(self):
        # fpdim 765 = 5 * 153: rank-9 components of squared sum 153 exist,
        # but no object has squared dim 153, so each full fill is rejected
        sol = DimSolution(765, (9, 9, 7, 7, 5, 5, 5, 3, 3, 3, 3, 3))
        assert filters.component_packing_feasible(sol, GradingCase((9, 9, 9, 1, 1))).discard


class TestDualProduct:
    def test_examples(self):
        assert not filters.dual_product_feasible([3, 7], 7).discard
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

    def test_forced_pointed_rule(self):
        verdict = filters.forced_pointed_rule(DimSolution(3 * 5 * 7, ()), RANK25_CASE)
        assert verdict.discard and verdict.citation == filters.CITE_FORCED_POINTED
        assert verdict.detail == "fpdim 105 forces a pointed category"
        assert filters.forced_pointed_rule(t1_solution(34), RANK25_CASE) is None

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
        assert not filters.semidirect_model(t1_solution(34), RANK25_CASE).discard
        assert filters.semidirect_model(DimSolution(3**2 * 5**4, ())) is None
        assert filters.semidirect_model(DimSolution(3 * 5 * 7, ())) is None
        assert filters.semidirect_model(DimSolution(3**2 * 7**5, ())) is None


def one_label_per_rule(verdicts_by_rule: dict) -> dict:
    """Each rule's set of (reason, citation) labels over its verdicts, after
    checking that it has at most one, that no two rules share a reason or a
    citation, and that a verdict is a discard exactly when its detail is a
    non-empty string."""
    labels = {}
    for rule, verdicts in verdicts_by_rule.items():
        given = [v for v in verdicts if v is not None]
        for v in given:
            assert v.discard == (isinstance(v.detail, str) and v.detail != "")
        labels[rule] = {(v.reason, v.citation) for v in given}
        assert len(labels[rule]) <= 1, rule
    for part in (0, 1):
        named = [label[part] for got in labels.values() for label in got]
        assert len(set(named)) == len(named)
    return labels


class TestOneLabelPerRule:
    def test_grading_filters(self):
        cases = [c for rank in range(17, 50, 2) for s in invertible_count_candidates(rank)
                 for c in enumerate_cases(rank, s)]
        labels = one_label_per_rule({f: [f(c) for c in cases] for f in GRADING_FILTERS})
        assert all(len(got) == 1 for got in labels.values())

    def test_prime_chain_on_table1(self):
        sols = [t1_solution(i) for i in range(1, 36)]
        one_label_per_rule({step: [step(sol, RANK25_CASE) for sol in sols]
                            for step in cli.PRIME_CHAIN})
