import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oddmtc.gradings import (
    GradingCase,
    enumerate_cases,
    filter_divisibility,
    filter_min_three_components,
    filter_odd_multiplicity,
    invertible_count_candidates,
)


def case(ranks):
    return GradingCase(tuple(sorted(ranks, reverse=True)))


class TestInvertibleCountCandidates:
    def test_examples(self):
        assert invertible_count_candidates(25) == [1, 3, 5, 9, 17, 25]
        assert invertible_count_candidates(29) == [1, 3, 5, 7, 13, 21, 29]
        assert invertible_count_candidates(1) == [1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            invertible_count_candidates(24)

    @given(st.integers(0, 30).map(lambda x: 2 * x + 1))
    def test_definition(self, rank):
        cands = invertible_count_candidates(rank)
        for s in range(1, rank + 1, 2):
            expressible = any((rank - 8 * j) % s == 0 and (rank - 8 * j) >= s
                              for j in range((rank - s) // 8 + 1))
            assert (s in cands) == expressible


class TestEnumerateCases:
    def test_rank33(self):
        got = [c.component_ranks for c in enumerate_cases(33, 3)]
        assert sorted(got) == sorted([(27, 3, 3), (19, 11, 3), (11, 11, 11)])

    def test_rank29(self):
        got = [c.component_ranks for c in enumerate_cases(29, 5)]
        assert sorted(got) == sorted(
            [(25, 1, 1, 1, 1), (17, 9, 1, 1, 1), (9, 9, 9, 1, 1)])

    def test_single_component(self):
        assert [c.component_ranks for c in enumerate_cases(35, 1)] == [(35,)]

    def test_rank49_includes_uniform(self):
        got = [c.component_ranks for c in enumerate_cases(49, 7)]
        assert (7, 7, 7, 7, 7, 7, 7) in got

    def test_invalid_invertibles(self):
        with pytest.raises(ValueError):
            enumerate_cases(33, 7)

    @given(st.sampled_from([(25, 3), (29, 5), (33, 3), (39, 15), (41, 17), (49, 7)]))
    @settings(deadline=None)
    def test_complete_vs_bruteforce(self, pair):
        rank, s = pair
        got = {c.component_ranks for c in enumerate_cases(rank, s)}
        want = set()
        # brute force: all descending odd multisets summing to rank,
        # pairwise congruent mod 8
        def rec(prefix, left, parts, cap):
            if parts == 0:
                if left == 0 and len({x % 8 for x in prefix}) == 1:
                    want.add(tuple(prefix))
                return
            for v in range(min(cap, left - (parts - 1)), 0, -2):
                rec(prefix + [v], left - v, parts - 1, v)
        rec([], rank, s, rank)
        assert got == want


class TestGradingCase:
    @pytest.mark.parametrize("ranks, adjoint", [
        ((19, 3, 3), 19), ((11, 11, 3), 3), ((9, 9, 9), 9),
        # 17, 9 and 1 all occur an odd number of times
        ((17, 9, 9, 9, 1, 1, 1, 1, 1), None),
    ])
    def test_adjoint_rank(self, ranks, adjoint):
        assert GradingCase(ranks).adjoint_rank == adjoint


class TestFilters:
    def test_min_three_components(self):
        assert filter_min_three_components(case([9] + [1] * 16)).discard
        assert not filter_min_three_components(case([19, 3, 3])).discard
        assert not filter_min_three_components(case([3] * 9)).discard

    def test_divisibility(self):
        assert filter_divisibility(case([11, 11, 3])).discard
        assert filter_divisibility(case([11, 3, 3, 3, 3, 3, 3])).discard
        assert not filter_divisibility(case([19, 3, 3])).discard
        assert filter_divisibility(case([9] * 3 + [1] * 12)) is None

    def test_odd_multiplicity(self):
        assert filter_odd_multiplicity(case([9, 9, 9, 9] + [1] * 11)).discard
        assert filter_odd_multiplicity(case([17, 9, 9, 9, 1, 1, 1, 1, 1])).discard
        assert not filter_odd_multiplicity(case([27, 3, 3])).discard

    def test_order_independence(self):
        fns = [filter_min_three_components, filter_divisibility, filter_odd_multiplicity]
        for rank, s in ((25, 3), (29, 5), (39, 15), (49, 7)):
            cases = enumerate_cases(rank, s)
            baseline = {c.component_ranks: {f(c) for f in fns} for c in cases}
            for perm in itertools.permutations(fns):
                got = {c.component_ranks: {f(c) for f in perm} for c in cases}
                assert got == baseline
