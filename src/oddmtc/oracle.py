"""
Independent brute-force enumerator used to certify the search engine on
bounded instances.

Iterates candidate fpdim values outermost and solves the layer equation
directly by divisor search; shares no code with the recursive engine.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import isqrt

from .dimsearch import DimSolution, RowDiff, SearchParams, diff_rows
from .exactmath import is_prime_power, squarefree_split


@lru_cache(maxsize=2)
def _square_root_parts(limit: int) -> list[int]:
    """For each n <= limit, the largest A with A^2 | n (via an spf sieve)."""
    spf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    part = [1] * (limit + 1)
    for n in range(2, limit + 1):
        p = spf[n]
        m = n
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        part[n] = part[m] * p ** (e // 2)
    return part


def _odd_divisors_at_least(n: int, lo: int) -> list[int]:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            for x in (d, n // d):
                if x >= lo and x % 2 == 1:
                    out.append(x)
    return sorted(set(out), reverse=True)


def oracle_enumerate(params: SearchParams, fpdim_bound: int) -> list[DimSolution]:
    """All solutions with fpdim <= fpdim_bound, by direct search."""
    if fpdim_bound < params.invertibles:
        raise ValueError("bound below the invertible count")
    s = params.layer_invertibles
    g = params.group_order
    k = params.k
    perfect = params.perfect
    dim_floor = 15 if perfect else 3
    parts = _square_root_parts(fpdim_bound) if fpdim_bound <= 2_000_000 else None

    out = []
    fpdim = params.rank % 8
    while fpdim <= fpdim_bound:
        out.extend(_solve_fpdim(fpdim, s, g, k, perfect, dim_floor, parts, params))
        fpdim += 8
    return sorted(out, key=DimSolution.sort_key)


def _solve_fpdim(fpdim, s, g, k, perfect, dim_floor, parts, params):
    if fpdim % g != 0:
        return []
    layer = fpdim // g
    target = layer - s
    if target < 2 * k * dim_floor * dim_floor or target % 2 != 0:
        return []
    half = target // 2  # sum of k squared dims
    # every dim must satisfy d^2 | fpdim, so d divides the square-root part
    root_part = parts[fpdim] if parts is not None else squarefree_split(fpdim)[0]
    # _pick's own first cut: no d exceeds root_part
    if k * root_part * root_part < half:
        return []
    divisors = [
        d
        for d in _odd_divisors_at_least(root_part, dim_floor)
        if (fpdim // (d * d)) % 2 == 1 and not (perfect and is_prime_power(d))
    ]
    sols: list[DimSolution] = []
    _pick(divisors, 0, k, half, [], sols, fpdim, s, params)
    return sols


def compare(search_out, oracle_out, fpdim_bound: int) -> RowDiff:
    """Diff the bound-restricted search output against the oracle's rows."""
    return diff_rows(oracle_out, [r for r in search_out if r.fpdim <= fpdim_bound])


def _pick(divs, idx, need, budget, acc, sols, fpdim, s, params):
    if need == 0:
        if budget == 0:
            dims = tuple(acc)
            sol = DimSolution(fpdim, s, dims, tuple(fpdim // (d * d) for d in dims))
            if _predicates_ok(sol, params):
                sols.append(sol)
        return
    if idx == len(divs):
        return
    d = divs[idx]
    d2 = d * d
    lo = divs[-1]
    if budget < need * lo * lo or budget > need * d2:
        return
    max_take = min(need, budget // d2)
    for take in range(max_take, -1, -1):
        acc.extend([d] * take)
        _pick(divs, idx + 1, need - take, budget - take * d2, acc, sols, fpdim, s, params)
        if take:
            del acc[-take:]


def _predicates_ok(sol: DimSolution, params: SearchParams) -> bool:
    m = sol.quotients[0]
    if m < max(params.min_m1, params.invertibles):
        return False
    if params.m1_square and isqrt(m) ** 2 != m:
        return False
    if m in params.m1_exclude:
        return False
    if params.mi_coprime and any(q % params.mi_coprime == 0 for q in sol.quotients):
        return False
    if params.min_run and params.min_run > 1:
        counts = Counter(sol.dims)
        if max(counts.values()) < params.min_run:
            return False
        # dims outside the equal groups are fixed, hence divisible by the
        # group length; group sizes must be multiples of that length
        for value, mult in counts.items():
            if value % params.min_run and mult % params.min_run:
                return False
    return True
