import functools
import gc
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oddmtc import dimsearch, oracle
from oddmtc.dimsearch import (
    DimSolution,
    SearchParams,
    _Engine,
    _min_run_ok,
    canonical,
    diff_rows,
    enumerate_solutions,
    m1_candidates,
    validate_solution,
)
from oddmtc.exactmath import InvariantError, factorize, isqrt_exact

SRC = Path(__file__).resolve().parent.parent / "src"
RANK27 = SearchParams(rank=27, invertibles=3, min_m1=5)
# a perfect-layer row that passes every check but the perfect-layer dim:
# every dim is at least 15, and 27 = 3^3 and 25 = 5^2 are prime powers
PERFECT_PARAMS = SearchParams(rank=25, invertibles=1)
PERFECT_ROW = DimSolution(455625, (225, 225, 225, 225, 75, 75, 75, 75, 27, 27, 27, 25))
# the basic, perfect and two adjoint layers (s = 3, 1, 5, 3; g = 1, 1, 5, 15;
# dmin = 3, 15, 3, 3); the prime 5 of g = 15 is not in s = 3, so final_node's
# floor must strip g from Q
PLANT_PARAMS = [
    SearchParams(rank=25, invertibles=3),
    SearchParams(rank=23, invertibles=1),
    SearchParams(rank=49, invertibles=5, adjoint_rank=29,
                 adjoint_invertibles=5),
    SearchParams(rank=49, invertibles=15, adjoint_rank=15,
                 adjoint_invertibles=3),
]


def next_level(
    c_prev: Fraction, u_prev: int, remaining: int, params: SearchParams, w: int = 1
) -> list[tuple[int, Fraction]]:
    """Admissible (u_next, c_next) continuations from state (c_prev, u_prev),
    computed with Fractions as a reference for the engine's integer scan.
    mi_coprime is tested on the quotient w*u_next^2."""
    s = params.layer_invertibles
    # u^2 <= s*u_prev^2/(t*c_prev) + 2*remaining*u_prev^2/c_prev
    upper = (Fraction(s, params.dmin ** 2) + 2 * remaining) * u_prev * u_prev / c_prev
    out = []
    u = u_prev
    while u * u <= upper:
        c_next = c_prev * u * u / (u_prev * u_prev) - 2
        if c_next > 0 and (not params.mi_coprime or w * u * u % params.mi_coprime != 0):
            out.append((u, c_next))
        u += 2
    return out


def _chain_row(params: SearchParams, w: int, chain, D: int) -> DimSolution | None:
    """The row of the u-chain `chain` with D = d_i*u_i, from the definitions:
    d_i = D/u_i and fpdim = w*D^2.  None unless every d_i is a whole odd
    number of at least dmin, fpdim is within the bound, no dim of a perfect
    layer is a prime power, and with min_run = L some dim occurs L times
    and every dim L does not divide occurs a multiple of L times."""
    if any(D % u for u in chain):
        return None
    dims = tuple(D // u for u in chain)
    counts, L = Counter(dims), params.min_run
    if (any(d < params.dmin or d % 2 == 0 for d in dims)
            or params.fpdim_bound is not None and w * D * D > params.fpdim_bound
            or params.perfect and any(len(factorize(d)) == 1 for d in dims)
            or L and (max(counts.values()) < L
                      or any(v % L and c % L for v, c in counts.items()))):
        return None
    return DimSolution(w * D * D, dims)


def _children_fractions(eng: _Engine, Q: int, l: int, u: int, rem: int):
    """`eng.children(Q, l, u, rem)` as next_level's (u', c') pairs, checking
    that each child carries l' = lcm(l, u')."""
    g = eng.params.group_order
    got = []
    for up, Qn, ln in eng.children(Q, l, u, rem):
        assert ln == math.lcm(l, up)
        got.append((up, Fraction(up * up * Qn, g * ln * ln)))
    return got


def _final_node_reference(eng: _Engine, Q: int, l: int, u: int, path,
                          levels: int) -> list[DimSolution]:
    """Completions whose new value u_k fills the last `levels` levels (u_k > u
    when levels > 1), by an unbounded scan: every d with d^2 | s*g*l^2,
    factored from scratch, tested by exact division of
    Q*u_k^2 = s*g*l^2/d^2 + 2*levels*g*l^2."""
    gl2 = eng.params.group_order * l * l
    target = eng.s * gl2
    roots = [1]
    for p, e in factorize(target):
        roots = [r * p**a for r in roots for a in range(e // 2 + 1)]
    out = []
    for d in roots:
        if d < eng.dmin:
            continue
        q, r = divmod(target // (d * d) + 2 * levels * gl2, Q)
        if r:
            continue
        up, square = isqrt_exact(q)
        if (not square or up < u or (levels > 1 and up == u) or up % 2 == 0
                or (eng.cop and eng.w * up * up % eng.cop == 0)):
            continue
        sol = _chain_row(eng.params, eng.w, path + (up,) * levels, d * up)
        if sol is not None:
            out.append(sol)
    return out


def _final_pick_reference(eng: _Engine, Q: int, l: int, u: int, path,
                          rem: int) -> list[DimSolution]:
    """Completions of a state with D = l from the defining equation: every
    multiset of rem odd d | l in [dmin, l/u] (u' = l/d, with w*u'^2 prime to
    mi_coprime) with g*(s + 2*sum d^2) == Q, through `_chain_row`.  A memoized
    split on the largest d, which needs d^2 <= budget <= need*d^2; the last d
    solves d^2 = budget."""
    g, s = eng.params.group_order, eng.s
    divs = [d for d in range(l // u, eng.dmin - 1, -1)
            if l % d == 0 and d % 2 and not (eng.cop and eng.w * (l // d) ** 2 % eng.cop == 0)]

    @functools.cache
    def multisets(i, need, budget):
        """Nonincreasing need-tuples from divs[i:] whose squares sum to budget."""
        if need == 1:
            d, square = isqrt_exact(budget)
            return [(d,)] if square and d in divs[i:] else []
        return [(d,) + rest for d in divs[i:] if d * d <= budget <= need * d * d
                for rest in multisets(divs.index(d), need - 1, budget - d * d)]

    H, odd = divmod(Q - g * s, 2 * g)
    out = []
    for dims in [] if odd or H < 0 else multisets(0, rem, H):
        assert g * (s + 2 * sum(d * d for d in dims)) == Q
        sol = _chain_row(eng.params, eng.w, path + tuple(l // d for d in dims), l)
        if sol is not None:
            out.append(sol)
    return out


@st.composite
def _near_boundaries(draw):
    """SearchParams kwargs drawn on both sides of two rules' boundaries,
    which uniform draws rarely meet: an adjoint triple with rank on
    invertibles*adjoint_rank (mod 8) or 2 either side of it, and min_run at
    k - 1, k or k + 1."""
    odd = st.integers(0, 12).map(lambda x: 2 * x + 1)
    s = draw(odd)
    if draw(st.booleans()):
        ai = draw(odd)
        ar = ai + 2 * draw(st.integers(1, 12))
        # the least rank >= ar, > s and = s*ar (mod 8), then up by 0-2 eights
        rank = max(ar, s + 2)
        rank += (s * ar - rank) % 8 + 8 * draw(st.integers(0, 2))
        rank += draw(st.sampled_from([-2, 0, 0, 2]))
        k = (ar - ai) // 2
    else:
        ar = ai = None
        rank = s + 2 * draw(st.integers(1, 12))
        k = (rank - s) // 2
    return dict(rank=rank, invertibles=s, adjoint_rank=ar, adjoint_invertibles=ai,
                min_m1=draw(st.integers(1, 30)),
                min_run=draw(st.none() | st.sampled_from([k - 1, k, k + 1])),
                mi_coprime=draw(st.none() | st.integers(2, 8)),
                fpdim_bound=draw(st.none() | st.integers(1, 10**7)))


class TestSearchParams:
    def test_basic_derived(self):
        p = SearchParams(rank=25, invertibles=3)
        assert (p.layer_invertibles, p.group_order, p.k, p.perfect, p.dmin) == (3, 1, 11, False, 3)

    def test_perfect_derived(self):
        p = SearchParams(rank=23, invertibles=1)
        assert (p.k, p.perfect, p.dmin) == (11, True, 15)

    def test_adjoint_derived(self):
        p = SearchParams(rank=49, invertibles=5, adjoint_rank=29, adjoint_invertibles=5)
        assert (p.layer_invertibles, p.group_order, p.k) == (5, 5, 12)
        # T6: the given pair, not rank 45 and 3 invertibles, sets k
        p = SearchParams(rank=45, invertibles=3, adjoint_rank=15, adjoint_invertibles=3)
        assert (p.layer_invertibles, p.group_order, p.k) == (3, 3, 6)

    @pytest.mark.parametrize("kwargs", [
        dict(rank=24, invertibles=3),
        dict(rank=25, invertibles=4),
        dict(rank=25, invertibles=25),
        dict(rank=25, invertibles=3, min_m1=0),
        dict(rank=49, invertibles=5, adjoint_rank=29, adjoint_invertibles=29),
        dict(rank=25, invertibles=3, min_run=1),
        dict(rank=25, invertibles=3, min_run=0),
        dict(rank=25, invertibles=3, min_run=-1),
        dict(rank=25, invertibles=3, mi_coprime=1),
        dict(rank=25, invertibles=3, mi_coprime=0),
        dict(rank=25, invertibles=3, fpdim_bound=0),
        dict(rank=25, invertibles=3, fpdim_bound=-5),
        dict(rank=7, invertibles=3, adjoint_rank=9, adjoint_invertibles=3),
        dict(rank=25, invertibles=3, adjoint_rank=15, adjoint_invertibles=4),
        dict(rank=49, invertibles=5, adjoint_rank=29),
        dict(rank=49, invertibles=5, adjoint_invertibles=5),
        # fpdim = rank = 5 (mod 8) from m_1, but = 3*17 = 3 (mod 8) from the layer
        dict(rank=45, invertibles=3, adjoint_rank=17, adjoint_invertibles=3),
        # no value can occur 12 times among k = 11 dims
        dict(rank=25, invertibles=3, min_run=12),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SearchParams(**kwargs)

    @given(kwargs=st.fixed_dictionaries(dict(
               rank=st.integers(-3, 60), invertibles=st.integers(-3, 60),
               adjoint_rank=st.none() | st.integers(-3, 60),
               adjoint_invertibles=st.none() | st.integers(-3, 60),
               min_m1=st.integers(-2, 30),
               min_run=st.none() | st.integers(-3, 8),
               mi_coprime=st.none() | st.integers(-3, 8),
               fpdim_bound=st.none() | st.integers(-5, 10**7))) | _near_boundaries())
    @settings(max_examples=600, deadline=None)
    def test_rejects_exactly_invalid_kwargs(self, kwargs):
        rank, s = kwargs["rank"], kwargs["invertibles"]
        ar, ai = kwargs["adjoint_rank"], kwargs["adjoint_invertibles"]
        # each of the pair is drawn present or absent; half a pair is invalid
        if ar is None and ai is None:
            layer_invalid, k = False, (rank - s) // 2
        else:
            layer_invalid = (ar is None or ai is None or ai < 1
                             or ar % 2 == 0 or ai % 2 == 0 or ar <= ai or ar > rank
                             or (rank - s * ar) % 8)
            k = None if layer_invalid else (ar - ai) // 2
        invalid = (
            rank < 1 or rank % 2 == 0 or s < 1 or s % 2 == 0 or rank <= s or layer_invalid
            or kwargs["min_m1"] < 1
            or (kwargs["min_run"] is not None and not 2 <= kwargs["min_run"] <= k)
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
        p = SearchParams(rank=35, invertibles=3, adjoint_rank=17, adjoint_invertibles=3)
        assert m1_candidates(p) == [3, 11, 19, 27, 35, 43]

    def test_predicates(self):
        p = SearchParams(rank=49, invertibles=5, adjoint_rank=29, adjoint_invertibles=5)
        base = m1_candidates(p)
        squares = m1_candidates(SearchParams(rank=49, invertibles=5,
                                             adjoint_rank=29, adjoint_invertibles=5,
                                             m1_square=True))
        assert set(squares) <= set(base)
        assert all(int(m**0.5 + 0.5) ** 2 == m for m in squares)
        excl = m1_candidates(SearchParams(rank=49, invertibles=5,
                                          adjoint_rank=29, adjoint_invertibles=5,
                                          m1_square=True, m1_exclude=frozenset({49})))
        assert set(squares) - set(excl) == {49}
        cop = m1_candidates(SearchParams(rank=49, invertibles=5,
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

    @given(params=st.sampled_from(PLANT_PARAMS), w=st.sampled_from([1, 3, 5, 7, 15]),
           c_num=st.integers(1, 200), c_den=st.integers(1, 30), nudge=st.integers(-3, 3),
           u=st.integers(0, 15).map(lambda x: 2 * x + 1), rem=st.integers(1, 10),
           lead=st.lists(st.integers(0, 15).map(lambda x: 2 * x + 1), max_size=3),
           cop=st.sampled_from([None, 3, 5, 9, 15, 25]),
           slack=st.none() | st.integers(-2000, 2000),
           times=st.just(1) | st.integers(2, 60))
    @settings(max_examples=500, deadline=None)
    def test_recurrence_and_bounds(self, params, w, c_num, c_den, nudge, u, rem, lead,
                                   cop, slack, times):
        """`_Engine.children` yields exactly the reference continuations, in
        order, from an integer Q near c_num/c_den*g*l^2/u^2 with
        l = lcm(path): the state c = u^2*Q/(g*l^2).  Each child carries
        l' = lcm(path, u').  With fpdim_bound set, Dmax = times*l + slack,
        it yields the subset with lcm(path, u') <= Dmax, also when l > Dmax:
        that is its only bounded filter.  A large `times` puts many r on each
        divisor h of l in the bounded children's table."""
        assume(not cop or w * u * u % cop)
        g = params.group_order
        path = tuple(sorted(x for x in lead if x <= u)) + (u,)
        l = math.lcm(*path)
        Q = max(1, c_num * g * l * l // (c_den * u * u) + nudge)
        params = replace(params, mi_coprime=cop)
        want = next_level(Fraction(u * u * Q, g * l * l), u, rem, params, w)
        if slack is not None:
            Dmax = max(1, times * l + slack)
            params = replace(params, fpdim_bound=w * Dmax * Dmax)
            want = [(up, cn) for up, cn in want if math.lcm(l, up) <= Dmax]
        assert _children_fractions(_Engine(params, w), Q, l, u, rem) == want

    @given(params=st.sampled_from(PLANT_PARAMS), w=st.sampled_from([1, 3, 5, 7, 15]),
           exps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
                         min_size=1, max_size=3),
           calls=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 200),
                                    st.integers(1, 10), st.integers(1, 8)),
                          min_size=2, max_size=4),
           Dmax=st.integers(1, 4000), cop=st.sampled_from([None, 3, 5, 9, 15]))
    @settings(max_examples=150, deadline=None)
    def test_one_table_per_l(self, params, w, exps, calls, Dmax, cop):
        """One bounded engine serves several (Q, u, rem) at each of a few l
        (products of 3^a*5^b*7^c, with u among the divisors of l) from one
        memoized table per l, so the table must depend on l alone: every
        call yields exactly the reference continuations with
        lcm(l, u') <= Dmax, and none when l > Dmax."""
        g = params.group_order
        params = replace(params, mi_coprime=cop, fpdim_bound=w * Dmax * Dmax)
        eng = _Engine(params, w)
        assert eng.Dmax == Dmax
        for a, b, c in exps:
            l = 3 ** a * 5 ** b * 7 ** c
            us = [v for v in range(1, l + 1, 2) if l % v == 0]
            for i, c_num, c_den, rem in calls:
                u = us[i % len(us)]
                Q = max(1, c_num * g * l * l // (c_den * u * u))
                want = [(up, cn) for up, cn in
                        next_level(Fraction(u * u * Q, g * l * l), u, rem, params, w)
                        if math.lcm(l, up) <= Dmax]
                got = _children_fractions(eng, Q, l, u, rem)
                assert got == want, (l, u, Q, rem)
                assert not (l > Dmax and got)

    @given(params=st.sampled_from(PLANT_PARAMS), w=st.sampled_from([1, 3, 5, 7, 15]),
           exps=st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
                          st.integers(0, 1)),
           lead=st.integers(0, 40), picks=st.lists(st.integers(0, 40), min_size=1, max_size=4),
           cop=st.sampled_from([None, 3, 5, 9, 15]), over=st.integers(0, 10**6),
           pick_first=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_table_shared_with_final_pick(self, params, w, exps, lead, picks, cop, over,
                                          pick_first):
        """`children` and `final_pick` read the same memoized table of l, so
        one bounded engine calls both at one l with Dmax // l < 3, in either
        order, and each call must match its reference.  The state (Q, l, u)
        is planted from a completion that takes a few divisors u' >= u of l,
        a product of powers of 3, 5, 7, 11, with Q = g*(s + 2*sum (l/u')^2);
        the path value u passes mi_coprime, as a search's do.
        Dmax falls in [1, 3l): at Dmax < l neither call yields anything."""
        s, g = params.layer_invertibles, params.group_order
        l = 3 ** exps[0] * 5 ** exps[1] * 7 ** exps[2] * 11 ** exps[3]
        us = [v for v in range(1, l + 1, 2) if l % v == 0]
        passing = [v for v in us if not (cop and w * v * v % cop == 0)]
        assume(passing)
        u = passing[lead % len(passing)]
        later = us[us.index(u):]
        dims = tuple(l // v for v in sorted(later[i % len(later)] for i in picks))
        Q, rem, path = g * (s + 2 * sum(d * d for d in dims)), len(dims), (u,)
        Dmax = max(1, over % (3 * l))
        params = replace(params, mi_coprime=cop, fpdim_bound=w * Dmax * Dmax)
        eng = _Engine(params, w)
        assert eng.Dmax == Dmax and Dmax // l < 3
        kids = [(up, cn) for up, cn in
                next_level(Fraction(u * u * Q, g * l * l), u, rem, params, w)
                if math.lcm(l, up) <= Dmax]
        rows = canonical(_final_pick_reference(eng, Q, l, u, path, rem))
        for step in ("pick", "children") if pick_first else ("children", "pick"):
            if step == "pick":
                eng.final_pick(Q, l, u, path, rem)
                assert canonical(eng.out) == rows, (l, u, Q, rem)
            else:
                assert _children_fractions(eng, Q, l, u, rem) == kids, (l, u, Q, rem)
        assert not (Dmax < l and (kids or rows))


class TestFinalNode:
    # final_node scans u_k; the reference scans the square divisors of
    # target, factored whole, and keeps the rows `_chain_row` builds from
    # the definitions.  "-bound" caps fpdim at the median row's, and `emit`
    # drops the rows above it; a popped state with Dmax < 3l closes in
    # final_pick instead (rank27-bound's one row).  The counts are
    # {levels: (states, rows emitted)}, over every batch; levels = L is the
    # min-run tail.  T1, T5 and T8 stay out: the reference takes 6.3-17.5 s
    # of CPU on each.
    COUNTS = {
        "rank27": {1: (4, 1)}, "T2": {1: (9, 3)}, "T3": {1: (20681, 15)}, "T4": {1: (39, 13)},
        "T6": {1: (5, 2)},
        "T7": {1: (4266, 11)}, "T7-min_run2": {1: (4266, 2)}, "T7-min_run3": {1: (4266, 1)},
        "T7-min_run4": {1: (4266, 2)}, "T7-min_run5": {1: (4262, 11), 5: (4, 0)},
        "T4-min_run3": {1: (8, 6), 3: (14, 3)},
        "rank27-bound": {}, "T4-bound": {1: (9, 7)},
    }

    @pytest.mark.parametrize("table", COUNTS)
    def test_matches_unbounded_scan(self, table, golden_tables, engine_probe):
        expected = self.COUNTS[table]
        table, _, option = table.partition("-")
        p = RANK27 if table == "rank27" else golden_tables[table].params
        if option.startswith("min_run"):
            p = replace(p, min_run=int(option.removeprefix("min_run")))
        elif option == "bound":
            rows = enumerate_solutions(p)
            p = replace(p, fpdim_bound=rows[len(rows) // 2].fpdim)

        def check(method, eng, args, rows):
            if method == "final_node":
                prefix, states, levels = args
                want = canonical(sol for u, Q, l in states for sol in
                                 _final_node_reference(eng, Q, l, u, prefix + (u,), levels))
                assert canonical(rows) == want, args

        engine_probe.reset()
        engine_probe.on_close = check
        enumerate_solutions(p)
        assert engine_probe.final_node == expected

    def test_t8_counts(self, golden_tables, engine_probe):
        """T8 (k = 12, min_run = 5): the forced tail closes in final_node at
        levels = 5, which emits the row the last level does not; no state
        reaches final_chain, and a tail state then grows its run to 5 in one
        step."""
        assert len(enumerate_solutions(golden_tables["T8"].params)) == 21
        assert engine_probe.final_node == {1: (293851, 20), 5: (90884, 1)}
        assert (engine_probe.children[1], engine_probe.final_chain[0]) == (375933, 0)

    def test_bounded_counts(self, engine_probe):
        """Rank 33, s = 3 and rank 41, s = 5 with min_run = 5, at bound 10^6:
        the state cut, the lcm cap and the Dmax < 3l dispatch to final_pick
        set these counts, and on rank 41 the min-run rule too, so a change
        to a bounded prune or to that rule shows here.  children is
        (calls, children), and final_node states are counted by levels; the
        children of a rem = 2 state reach it in one batch, past the state
        cut and the dispatch to final_pick."""
        cases = [
            (SearchParams(rank=33, invertibles=3, fpdim_bound=10**6), 333,
             (1642, 2904), {1: 408}, 788),
            (SearchParams(rank=41, invertibles=5, min_run=5, fpdim_bound=10**6), 6,
             (5175, 9230), {1: 1328, 5: 727}, 2102),
        ]
        for params, size, children, final_node, final_pick in cases:
            engine_probe.reset()
            assert len(enumerate_solutions(params)) == size
            states = {levels: n for levels, (n, _) in engine_probe.final_node.items()}
            assert (engine_probe.children, states, engine_probe.final_pick[0]) == (
                children, final_node, final_pick), params

    @given(params=st.sampled_from(PLANT_PARAMS), w=st.sampled_from([1, 3, 5, 7, 15]),
           u=st.integers(0, 12).map(lambda x: 2 * x + 1),
           up_step=st.integers(0, 10), e=st.integers(0, 10).map(lambda x: 2 * x + 1),
           copies=st.integers(1, 5), min_run=st.sampled_from([None, 2, 3, 5]),
           cop=st.sampled_from([None, 3, 5, 7, 9, 15]),
           slack=st.none() | st.integers(-60, 60),
           tail=st.booleans())
    @settings(max_examples=1500, deadline=None)
    def test_planted_completions(self, params, w, u, up_step, e, copies, min_run, cop,
                                 slack, tail):
        """A state built from a chosen completion (d, u_k) whose u_k fills
        r levels, r = 1 or (tail) r = L = min_run with u_k >= u (u_k = u,
        which the min-run rule grows instead, is no completion there): with
        l = d*u_k*u, Q = g*(s + 2r*d^2)*u^2 solves
        Q*u_k^2 = s*g*l^2/d^2 + 2r*g*l^2 (final_node is exact for any
        (Q, l) with that ratio Q/(g*l^2), so l need not be lcm(path)), and
        d is an odd multiple of u/gcd(u, u_k), so that every d_i = d*u_k/u
        is whole."""
        s = params.layer_invertibles
        g = params.group_order
        levels = min_run if tail and min_run else 1
        uk = u + 2 * up_step
        step = u // math.gcd(u, uk)
        d = step * e
        while d < params.dmin:
            d += 2 * step
        fpdim = w * uk * uk * d * d
        params = replace(params, min_run=min_run, mi_coprime=cop,
                         fpdim_bound=None if slack is None else max(1, fpdim + slack))
        Q, l = g * (s + 2 * levels * d * d) * u * u, d * uk * u
        eng = _Engine(params, w)
        path = (u,) * copies
        eng.final_node(path[:-1], [(u, Q, l)], levels)
        got = canonical(eng.out)
        assert got == canonical(_final_node_reference(eng, Q, l, u, path, levels))

    @given(params=st.sampled_from(PLANT_PARAMS), w=st.sampled_from([1, 3, 5, 7, 15]),
           lead=st.lists(st.integers(0, 7).map(lambda x: 2 * x + 1), max_size=2),
           u=st.integers(0, 10).map(lambda x: 2 * x + 1),
           steps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
           e=st.integers(0, 5).map(lambda x: 2 * x + 1),
           min_run=st.sampled_from([None, 2, 3, 5]),
           cop=st.sampled_from([None, 3, 5, 7, 9, 15]),
           slack=st.none() | st.integers(-60, 60))
    @settings(max_examples=800, deadline=None)
    def test_planted_two_level_batch(self, params, w, lead, u, steps, e, min_run, cop,
                                     slack):
        """A rem = 2 state at u planted from a chosen completion
        u <= u' <= u'' with d'' = D/u'' >= dmin, where D is an odd multiple
        of lcm(path, u', u''): (Q, l) = (g*(s + 2d'^2 + 2d''^2), D) has the
        ratio Q/l^2 of the chain's state at u (children and final_node are
        exact for any pair with that ratio, so l need not be lcm(path)).
        The batch final_node(path, children(Q, l, u, 2), 1) emits exactly
        the reference rows of its children, the planted one among them when
        it passes mi_coprime and `_chain_row`."""
        s, g = params.layer_invertibles, params.group_order
        path = tuple(sorted(x for x in lead if x <= u)) + (u,)
        u1 = u + 2 * steps[0]
        u2 = u1 + 2 * steps[1]
        step = math.lcm(*path, u1, u2)
        D = step * e
        while D < params.dmin * u2:
            D += 2 * step
        d1, d2 = D // u1, D // u2
        params = replace(params, min_run=min_run, mi_coprime=cop,
                         fpdim_bound=None if slack is None else max(1, w * D * D + slack))
        Q, l = g * (s + 2 * d1 * d1 + 2 * d2 * d2), D
        eng = _Engine(params, w)
        eng.final_node(path, eng.children(Q, l, u, 2), 1)
        got = canonical(eng.out)
        want = [sol for up, Qn, ln in eng.children(Q, l, u, 2)
                for sol in _final_node_reference(eng, Qn, ln, up, path + (up,), 1)]
        assert got == canonical(want)
        row = _chain_row(params, w, path + (u1, u2), D)
        if row is not None and not (cop and any(w * v * v % cop == 0 for v in (u1, u2))):
            assert row in got

    @given(Q=st.integers(1, 10**12), m=st.integers(0, 10**9), shift=st.integers(-2, 2),
           u=st.integers(0, 10**9).map(lambda x: 2 * x + 1), skip=st.sampled_from([0, 2]),
           at_u=st.booleans())
    def test_first_past_zero(self, Q, m, shift, u, skip, at_u):
        """final_node's `first`, u + skip when Q*(u + skip)^2 > N and
        otherwise (isqrt(N // Q) + 1) | 1, is the least odd u_k >= u + skip
        with Q*u_k^2 > N.  N = Q*m^2 + shift puts N next to a multiple of a
        square; with at_u, m = u + skip, so Q*(u + skip)^2 = N at shift = 0."""
        if at_u:
            m = u + skip
        N = max(0, Q * m * m + shift)
        least = u + skip
        first = least if Q * least * least > N else (math.isqrt(N // Q) + 1) | 1
        assert first % 2 == 1 and first >= least and Q * first * first > N
        assert first - 2 < least or Q * (first - 2) ** 2 <= N


class TestFinalPick:
    # {id: (params, final_pick calls, rows they emit)}; rank49-min_run5 is
    # `oracle-check --rank 49 --invertibles 5 --min-run 5`, and the
    # mi_coprime and perfect (dmin = 15) cases are CI's two runs at 4*10^6
    CASES = {
        "rank33": (SearchParams(rank=33, invertibles=3, fpdim_bound=10**6), 788, 274),
        "rank41-min_run5": (SearchParams(rank=41, invertibles=5, min_run=5,
                                         fpdim_bound=10**6), 2102, 1),
        "rank49-min_run5": (SearchParams(rank=49, invertibles=5, min_run=5,
                                         fpdim_bound=10**6), 12003, 64),
        "rank33-mi_coprime15": (SearchParams(rank=33, invertibles=3, mi_coprime=15,
                                             fpdim_bound=4 * 10**6), 648, 33),
        "rank33-perfect": (SearchParams(rank=33, invertibles=1, fpdim_bound=4 * 10**6),
                           1881, 9),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reference(self, case, engine_probe):
        """Every final_pick call of a bounded search emits exactly the rows of
        `_final_pick_reference`, and the pick makes these (calls, rows)."""
        params, calls, rows = self.CASES[case]

        def check(method, eng, args, emitted):
            if method == "final_pick":
                Q, l, u, path, rem = args
                assert eng.Dmax < 3 * l
                want = canonical(_final_pick_reference(eng, Q, l, u, path, rem))
                assert canonical(emitted) == want, args

        engine_probe.on_close = check
        enumerate_solutions(params)
        assert engine_probe.final_pick == (calls, rows)

    @given(params=st.sampled_from(PLANT_PARAMS), w=st.sampled_from([1, 3, 5, 7, 15]),
           exps=st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
                          st.integers(0, 1)),
           lead=st.lists(st.integers(0, 40), min_size=1, max_size=2),
           picks=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 2)),
                          min_size=1, max_size=2),
           min_run=st.sampled_from([None, 2, 3, 4, 5]),
           cop=st.sampled_from([None, 3, 5, 9, 15]), over=st.integers(0, 10**6),
           shift=st.integers(0, 2), below=st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_planted_completions(self, params, w, exps, lead, picks, min_run, cop, over,
                                 shift, below):
        """A state with D = l planted from a chosen completion: l is a product
        of powers of 3, 5, 7, 11, the path holds divisors of l that pass
        mi_coprime, as a search's do (final_pick reads l only as D, so l
        need not be lcm(path)), the completion takes each of a few
        divisors u' >= u a few times, and
        Q = g*(s + 2*sum (l/u')^2).  With l <= Dmax < 3l, final_pick emits
        exactly the reference rows, the planted one among them when it
        passes mi_coprime and `_chain_row`.  With Dmax < l (below), a state
        the search never closes there, the table `kept(l)` is empty, and
        final_pick returns at it with no row.  Q + 2*shift with shift = 1 or 2
        has no completion, and `final_pick` returns at its root: with g > 2,
        2g does not divide Q - g*s; with g = 1, H = (Q - g*s)/2g grows by
        shift, while a sum of rem odd squares is rem (mod 8)."""
        s, g = params.layer_invertibles, params.group_order
        l = 3 ** exps[0] * 5 ** exps[1] * 7 ** exps[2] * 11 ** exps[3]
        us = [v for v in range(1, l + 1, 2) if l % v == 0]
        passing = [v for v in us if not (cop and w * v * v % cop == 0)]
        assume(passing)
        # with min_run = L, L copies of each value keep the p-batch rule in reach
        rep = min_run or 2
        path = tuple(sorted(passing[i % len(passing)] for i in lead for _ in range(rep)))
        u = path[-1]
        later = us[us.index(u):]
        planted = sorted(later[i % len(later)] for i, n in picks for _ in range(n * rep))
        dims = tuple(l // v for v in planted)
        Q = g * (s + 2 * sum(d * d for d in dims))
        Dmax = max(1, over % l) if below else l + over % (2 * l)
        params = replace(params, min_run=min_run, mi_coprime=cop, fpdim_bound=w * Dmax * Dmax)
        eng = _Engine(params, w)
        assert eng.Dmax == Dmax < 3 * l
        Q += 2 * shift
        eng.final_pick(Q, l, u, path, len(dims))
        got = canonical(eng.out)
        assert got == canonical(_final_pick_reference(eng, Q, l, u, path, len(dims)))
        assert not ((shift or Dmax < l) and got)
        row = _chain_row(params, w, path + tuple(planted), l)
        if (row is not None and not shift
                and not (cop and any(w * v * v % cop == 0 for v in planted))):
            assert row in got

    def test_rows_share_dims(self, engine_probe):
        """The rows closed at one l read every dim, the path's included, from
        that l's table `l_dims[l]`, so each dim value above 256 (CPython
        shares the smaller ones anyway) is one int object among them.  The
        m1 = 9 branch of (49, 5) up to 10^6 makes most of that search's rows
        in `final_pick`."""
        params = SearchParams(rank=49, invertibles=5, fpdim_bound=10**6)
        by_l = {}

        def collect(method, eng, args, rows):
            if method == "final_pick":
                by_l.setdefault(args[1], []).extend(rows)

        engine_probe.on_close = collect
        dimsearch._search_branch((params, 9))
        shared = 0
        for rows in by_l.values():
            big = [d for row in rows for d in row.dims if d > 256]
            assert len({id(d) for d in big}) == len(set(big))
            shared += len(big) - len(set(big))
        assert shared > 1000

    def test_leaves_no_cycle(self):
        """A bounded search, whose closes run through `final_pick`, leaves
        nothing for the cyclic collector to free."""
        gc.collect()
        gc.disable()
        try:
            enumerate_solutions(SearchParams(rank=25, invertibles=3, fpdim_bound=10**6))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestState:
    @pytest.mark.parametrize("case", [
        "T4", "T4-min_run3", "rank33-bound", "rank41-min_run5-bound",
        "adjoint21-min_run2", "adjoint15"])
    def test_closed_states_carry_lcm(self, case, golden_tables, engine_probe):
        """Every state that reaches final_node, final_chain or final_pick has
        l = lcm(path) and Q/l^2 = w - 2g*sum 1/u_i^2.  final_chain takes
        e = D/l to be whole, and final_pick takes D = l from Dmax < 3l, so
        there l must be exactly lcm(path); the two adjoint cases (k = L = 2,
        and k = 1) close in final_chain."""
        params = {
            "T4": golden_tables["T4"].params,
            "T4-min_run3": replace(golden_tables["T4"].params, min_run=3),
            "rank33-bound": SearchParams(rank=33, invertibles=3, fpdim_bound=10**6),
            "rank41-min_run5-bound": SearchParams(rank=41, invertibles=5, min_run=5,
                                                  fpdim_bound=10**6),
            "adjoint21-min_run2": SearchParams(rank=21, invertibles=3,
                                               adjoint_rank=7, adjoint_invertibles=3,
                                               min_run=2),
            "adjoint15": SearchParams(rank=15, invertibles=3,
                                      adjoint_rank=5, adjoint_invertibles=3),
        }[case]
        g = params.group_order

        def check(method, eng, args, rows):
            if method == "final_node":
                prefix, states, _ = args
                closed = [(Q, l, prefix + (u,)) for u, Q, l in states]
            elif method == "final_chain":
                closed = [args]
            else:
                Q, l, _, path, _ = args
                closed = [(Q, l, path)]
            for Q, l, path in closed:
                assert l == math.lcm(*path), path
                assert Fraction(Q, l * l) == eng.w - 2 * g * sum(Fraction(1, u * u) for u in path)

        engine_probe.on_close = check
        assert enumerate_solutions(params)
        states = sum(n for n, _ in engine_probe.final_node.values())
        assert states + engine_probe.final_chain[0] + engine_probe.final_pick[0]


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


def assert_canonical(rows):
    """The canonical order on its own terms: each row has a larger fpdim
    than the next, or the same fpdim and larger dims.  Some rows share an
    fpdim, so the dims decide somewhere."""
    assert any(a.fpdim == b.fpdim for a, b in zip(rows, rows[1:]))
    for a, b in zip(rows, rows[1:]):
        assert a.fpdim > b.fpdim or a.fpdim == b.fpdim and a.dims > b.dims, (a, b)


class TestEnumerateSolutions:
    def test_rank27_pinpoint(self):
        sols = enumerate_solutions(RANK27)
        assert len(sols) == 1
        assert sols[0].fpdim == 2475
        assert sols[0].dims == (15, 15, 15, 15, 15, 5, 5, 5, 3, 3, 3, 3)

    def test_adjoint_rank45(self):
        p = SearchParams(rank=45, invertibles=3, adjoint_rank=15, adjoint_invertibles=3)
        sols = enumerate_solutions(p)
        assert [(s.fpdim, s.dims) for s in sols] == [
            (2925, (15, 15, 3, 3, 3, 3)),
            (333, (3, 3, 3, 3, 3, 3)),
        ]

    def test_canonical_order_and_quotients(self, rank25_solutions):
        sols = rank25_solutions
        assert_canonical(sols)
        for s in sols:
            assert s.quotients == tuple(s.fpdim // (d * d) for d in s.dims)
            assert list(s.quotients) == sorted(s.quotients)

    def test_oracle_rows_in_canonical_order(self):
        rows = oracle.oracle_enumerate(SearchParams(rank=49, invertibles=5, fpdim_bound=10**5))
        assert len(rows) == 188
        assert_canonical(rows)

    def test_jobs_equivalence(self):
        assert enumerate_solutions(RANK27, jobs=1) == enumerate_solutions(RANK27, jobs=2)

    def test_duplicate_rows_rejected(self, monkeypatch):
        """A branch that returns one of its rows twice fails the duplicate check."""
        search_branch = dimsearch._search_branch

        def twice(args):
            rows = search_branch(args)
            return rows + rows[:1]

        monkeypatch.setattr(dimsearch, "_search_branch", twice)
        with pytest.raises(InvariantError, match="duplicate solutions"):
            enumerate_solutions(RANK27)

    def test_duplicate_across_branches_rejected(self, monkeypatch):
        """A row of one m1 branch that another branch also returns fails the
        duplicate check, which compares neighbours in the canonical order:
        (33, 3) up to 10^6 has rows in the m1 = 9 and 17 branches only."""
        params = SearchParams(rank=33, invertibles=3, fpdim_bound=10**6)
        search_branch = dimsearch._search_branch
        stray = search_branch((params, 17))[0]

        def with_stray(args):
            rows = search_branch(args)
            return [stray] + rows if args[1] == 9 else rows

        monkeypatch.setattr(dimsearch, "_search_branch", with_stray)
        assert len(search_branch((params, 9))) > 1
        with pytest.raises(InvariantError, match="duplicate solutions"):
            enumerate_solutions(params)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError):
            enumerate_solutions(RANK27, jobs=jobs)

    @pytest.mark.parametrize("case", ["rank25", "rank27", "T2", "T4", "T6", "T7",
                                      "T4-min_run3", "adjoint45"])
    def test_fpdim_bound_restricts(self, case, request, golden_tables):
        """Every row's fpdim, and one below it, as the bound (rank 25: the rows
        up to 10^5): the search gives exactly the unbounded rows under it.
        A row's own fpdim as the bound puts Dmax at its D, and D = 3l is
        possible there, so Dmax = 3l must not reach final_pick: adjoint45's
        333 row (all d = 3) has l = 1 at the root and D = 3, its 2925 row
        l = 5 at (1, 1, 5) and D = 15, and two rank-25 rows at 2025 have
        D = 45 = 3*lcm(3, 3, 5)."""
        if case == "rank25":
            p = SearchParams(rank=25, invertibles=3)
        elif case == "rank27":
            p = RANK27
        elif case == "adjoint45":
            p = SearchParams(rank=45, invertibles=3, adjoint_rank=15, adjoint_invertibles=3)
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


class TestDimSolution:
    def test_frozen_slotted_value(self, rank25_solutions):
        """A row is a frozen value with no instance dict, equal and hashed
        by value, and a pickle round-trip (how `--jobs` workers return rows)
        gives an equal row."""
        row = rank25_solutions[0]
        with pytest.raises(FrozenInstanceError):
            row.fpdim = 1
        twin = DimSolution(row.fpdim, tuple(list(row.dims)))
        assert twin is not row and twin == row and hash(twin) == hash(row)
        assert twin != replace(row, fpdim=row.fpdim + 8)
        assert not hasattr(row, "__dict__")
        back = pickle.loads(pickle.dumps(row))
        assert back == row and hash(back) == hash(row)


class TestCanonical:
    @given(k=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_sort_key_order(self, k, data):
        """The two stable passes give the order of `DimSolution.sort_key` on
        rows of one length, many of them sharing an fpdim."""
        dims = st.lists(st.integers(3, 9), min_size=k, max_size=k).map(tuple)
        rows = data.draw(st.lists(st.builds(DimSolution, st.integers(1, 4), dims),
                                  max_size=30))
        assert canonical(iter(rows)) == sorted(rows, key=DimSolution.sort_key)


class TestCollectorPause:
    """`enumerate_solutions` and `diff_rows` run with the cyclic collector
    off and leave it as they found it, on a return and on a raise."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_enumerate_solutions(self, collector, monkeypatch):
        seen = []
        real = dimsearch.validate_solution

        def spy(sol, params):
            seen.append(gc.isenabled())
            real(sol, params)

        monkeypatch.setattr(dimsearch, "validate_solution", spy)
        assert enumerate_solutions(RANK27)
        assert seen == [False] and gc.isenabled() is collector

    def test_enumerate_solutions_raising(self, collector, monkeypatch):
        def refuse(sol, params):
            raise InvariantError("refused")

        monkeypatch.setattr(dimsearch, "validate_solution", refuse)
        with pytest.raises(InvariantError, match="refused"):
            enumerate_solutions(RANK27)
        assert gc.isenabled() is collector
        monkeypatch.undo()
        search_branch = dimsearch._search_branch
        monkeypatch.setattr(dimsearch, "_search_branch", lambda args: search_branch(args) * 2)
        with pytest.raises(InvariantError, match="duplicate solutions"):
            enumerate_solutions(RANK27)
        assert gc.isenabled() is collector

    def test_diff_rows(self, collector):
        row = DimSolution(33, (3, 3))
        seen = []

        def stream():
            seen.append(gc.isenabled())
            yield row
            raise RuntimeError("stream broke")

        assert diff_rows([row], [row]).empty
        assert gc.isenabled() is collector
        with pytest.raises(RuntimeError, match="stream broke"):
            diff_rows(stream(), [row])
        assert seen == [False] and gc.isenabled() is collector


class TestDiffRows:
    def test_missing_and_extra_in_key_order(self, rank25_solutions):
        rows = rank25_solutions
        diff = diff_rows(rows[2:], rows[:2] + rows[4:])
        assert diff.missing == (rows[3], rows[2]) and diff.extra == (rows[1], rows[0])
        assert not diff.empty
        # the sides are walked in step: the same rows in another order differ
        assert not diff_rows(rows, list(reversed(rows))).empty


class TestValidateSolution:
    def test_golden_rows_validate(self, golden_tables):
        for table in golden_tables.values():
            for row in table.rows:
                validate_solution(row, table.params)

    def test_tampered_rows_rejected(self, golden_tables):
        """One tampered row per check, each failing there first.  A dim of 1
        keeps d^2 = 1 (mod 8), so it passes every row check; an even dim
        fails the mod-8 check first.  Odd, nondecreasing quotients follow
        from the fpdim, order and exactness checks, so none is checked."""
        t1 = golden_tables["T1"]
        row = t1.rows[1]
        assert len(set(row.dims)) > 1

        def layer(dims):
            return DimSolution(3 + 2 * sum(d * d for d in dims), dims)

        cases = [
            (layer(row.dims + (3,)), t1.params, "number of dual pairs"),
            (replace(row, fpdim=row.fpdim + 1), t1.params, "fpdim odd"),
            (replace(row, fpdim=row.fpdim + 2), t1.params, "fpdim congruent to rank mod 8"),
            (replace(row, fpdim=row.fpdim + 8), t1.params, "fpdim equation"),
            (replace(row, dims=row.dims[:-1] + (row.dims[-1] + 2,)), t1.params,
             "fpdim equation"),
            (row, replace(t1.params, fpdim_bound=row.fpdim - 1), "fpdim within bound"),
            (replace(row, dims=row.dims[::-1]), t1.params, "dims nonincreasing"),
            (layer((1,) * 11), t1.params, "dim odd and at least 3"),
            (layer((5,) + (3,) * 10), t1.params, "quotient times dim squared is fpdim"),
            (PERFECT_ROW, PERFECT_PARAMS, "perfect-layer dim"),
        ]
        for bad, params, message in cases:
            with pytest.raises(InvariantError, match=f"^{message}$"):
                validate_solution(bad, params)

    def test_tampered_row_rejected_under_optimize(self):
        """A row check and two per-dim checks still raise under -O."""
        code = (
            "from dataclasses import replace\n"
            "from oddmtc import goldens\n"
            "from oddmtc.dimsearch import DimSolution, SearchParams, validate_solution\n"
            "from oddmtc.exactmath import InvariantError\n"
            "assert False, 'assert statements are live'\n"
            "t1 = next(t for t in goldens.load_goldens() if t.table_id == 'T1')\n"
            "row = t1.rows[1]\n"
            "for bad, params in [(replace(row, fpdim=row.fpdim + 8), t1.params),\n"
            "                    (replace(row, dims=row.dims[::-1]), t1.params),\n"
            f"                    ({PERFECT_ROW!r}, {PERFECT_PARAMS!r})]:\n"
            "    try:\n"
            "        validate_solution(bad, params)\n"
            "    except InvariantError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "fpdim equation\ndims nonincreasing\nperfect-layer dim\n"


class TestEngineAgainstOracle:
    def test_unbounded_search_matches_oracle(self, golden_tables):
        bound = 10**6
        checked = 0
        for table in golden_tables.values():
            p = table.params
            reference = oracle.oracle_enumerate(replace(p, fpdim_bound=bound))
            # the only unbounded search compared: it drops its own rows past the bound
            search = [r for r in enumerate_solutions(p) if r.fpdim <= bound]
            diff = oracle.compare(search, reference)
            assert diff.empty, (table.table_id, diff.missing, diff.extra)
            checked += len(reference)
        assert checked == 85

    @pytest.mark.parametrize("table", ["rank27", "T2", "T4", "T6", "T7"])
    def test_min_run_equals_filtered_search(self, table, golden_tables):
        p = RANK27 if table == "rank27" else golden_tables[table].params
        plain = enumerate_solutions(p)
        for length in range(2, 6):
            want = [s for s in plain if _min_run_ok(s.dims, length)]
            assert enumerate_solutions(replace(p, min_run=length)) == want, length
