"""
Independent brute-force enumerator used to certify the search engine on
bounded instances.

Visits only the fpdim values the first cut of `_solve_fpdim` can pass, and
solves the layer equation at each directly by divisor search; shares no code
with the recursive engine.  A row needs R = root_part(fpdim) >= dmin
(every dim d has d^2 | fpdim) and k*R^2 >= half, i.e. fpdim <= g*(2k*R^2 + s).
So the candidates are R^2 * j over odd R >= dmin, j = rank (mod 8) as
R^2 = 1 (mod 8), up to that cap.  The cap grows with R and root_part(R^2 * j)
is a multiple of R, so this set is exactly what the cut passes.  Every dim
is odd, so d^2 = 1 (mod 8) and half = sum d^2 = k (mod 8): `_solve_fpdim`
drops the other half of the candidates before it factors anything.  As
root_part(R^2 * j) = R * root_part(j), only j is factored.

Each predicate is tested once, at the step its definition puts it.  The
per-dim ones filter `_solve_fpdim`'s divisor list, once per fpdim: no dim
of the perfect layer is a prime power, and under mi_coprime = P no
quotient fpdim / d^2 is a multiple of P.  `_pick` takes the divisors
largest first, so its first take is d_1, and the predicates on m_1 alone
are tested there; that keeps the oracle run at each golden table's
largest row short enough for tier-1, T3 included.  min_run, the only
predicate on the whole multiset, is the only test on a finished row.
Odd arithmetic decides the rest: R and j are odd, so fpdim is, and so are
its divisors, their quotients and fpdim / g; with s odd, fpdim / g - s is
even.

`oracle_rows` yields the rows one at a time in canonical order: fpdims
come largest first, and `_pick` walks an explicit stack, pops its largest
take first and yields each row as it completes it.  So `compare` walks
the stream in step with the search's rows and holds neither, and only the
row in hand and `_pick`'s stack of partial rows are held on the oracle's side.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from math import isqrt

from .dimsearch import DimSolution, RowDiff, SearchParams, diff_rows
from .exactmath import is_prime_power, squarefree_split


def _divisors_at_least(n: int, lo: int) -> list[int]:
    """The divisors >= lo of odd n, descending."""
    out = set()
    for d in range(1, isqrt(n) + 1, 2):
        if n % d == 0:
            out.update(x for x in (d, n // d) if x >= lo)
    return sorted(out, reverse=True)


def oracle_enumerate(params: SearchParams) -> list[DimSolution]:
    """All solutions with fpdim <= params.fpdim_bound, by direct search."""
    return list(oracle_rows(params))


def oracle_rows(params: SearchParams) -> Iterator[DimSolution]:
    """The rows of `oracle_enumerate` as a stream, in canonical order, each
    yielded as `_pick` completes it.  The bound is checked here, when called."""
    if params.fpdim_bound is None:
        raise ValueError("the oracle needs an fpdim bound")
    if params.fpdim_bound < params.invertibles:
        raise ValueError("bound below the invertible count")
    return (row for fpdim, root in _candidate_fpdims(params)
            for row in _solve_fpdim(fpdim, root, params))


def _candidate_fpdims(params: SearchParams) -> list[tuple[int, int]]:
    """Every fpdim = rank (mod 8), <= fpdim_bound, that `_solve_fpdim`'s first
    cut (root_part >= dmin and k * root_part^2 >= half) can pass, descending,
    each paired with the first odd R >= dmin that gives it as R^2 * j."""
    g, k, s = params.group_order, params.k, params.layer_invertibles
    bound = params.fpdim_bound
    out = {}
    root = params.dmin
    while root * root <= bound:
        r2 = root * root
        top = min(bound, g * (2 * k * r2 + s)) // r2
        for j in range(params.rank % 8, top + 1, 8):
            out.setdefault(r2 * j, root)
        root += 2
    return sorted(out.items(), reverse=True)


def _solve_fpdim(fpdim: int, root: int, params: SearchParams) -> Iterator[DimSolution]:
    g, k, dmin, cop = params.group_order, params.k, params.dmin, params.mi_coprime
    if fpdim % g != 0:
        return
    half = (fpdim // g - params.layer_invertibles) // 2  # sum of k squared dims
    # every dim is odd, so d^2 = 1 (mod 8) and half = k (mod 8)
    if half < k * dmin * dmin or (half - k) % 8:
        return
    # every dim must satisfy d^2 | fpdim, so d divides the square-root part;
    # root^2 divides fpdim, and root_part(root^2 * j) = root * root_part(j)
    root_part = root * squarefree_split(fpdim // (root * root))[0]
    # _pick's own first cut: no d exceeds root_part
    if k * root_part * root_part < half:
        return
    divisors = [d for d in _divisors_at_least(root_part, dmin)
                if not (params.perfect and is_prime_power(d))
                and not (cop and fpdim // (d * d) % cop == 0)]
    yield from _pick(divisors, k, half, fpdim, params)


def compare(search_out, oracle_out) -> RowDiff:
    """Diff a search's canonical rows, with the oracle's bound, against the
    oracle's rows, a list or the stream of `oracle_rows`, holding neither.
    Every such row is within the bound (`validate_solution`), so none is filtered."""
    return diff_rows(oracle_out, search_out)


def _pick(divs, need, budget, fpdim, params) -> Iterator[DimSolution]:
    """Each row of `need` dims from `divs` (descending) whose squares sum to
    `budget` and that passes `_min_run_ok`, yielded as completed, in canonical order.
    A stack entry (idx, need, budget, acc) has taken the dims `acc` from
    divs[:idx]; a loop over the stack holds no generator per level."""
    lo2 = divs[-1] ** 2 if divs else 0
    stack = [(0, need, budget, ())]
    while stack:
        idx, need, budget, acc = stack.pop()
        if need == 0:
            if budget == 0 and _min_run_ok(acc, params.min_run):
                yield DimSolution(fpdim, acc)
            continue
        if idx == len(divs):
            continue
        d = divs[idx]
        d2 = d * d
        if budget < need * lo2 or budget > need * d2:
            continue
        # the same bounds for the next entry, tested before pushing it; past
        # the last divisor only need = budget = 0 is left
        next2 = divs[idx + 1] ** 2 if idx + 1 < len(divs) else 0
        # divisors come largest first, so with acc empty a take > 0 makes d the
        # row's d_1: take none when m_1 = fpdim / d^2 fails its predicates
        most = min(need, budget // d2) if acc or _m1_ok(fpdim // d2, params) else 0
        # rest - left*next2 and rest - left*lo2 fall as take grows: start at the
        # least take with rest <= left*next2; the largest take is popped first
        for take in range(max(0, -((need * next2 - budget) // (d2 - next2))), most + 1):
            rest, left = budget - take * d2, need - take
            if rest < left * lo2:
                break
            stack.append((idx + 1, left, rest, acc + (d,) * take))


def _m1_ok(m: int, params: SearchParams) -> bool:
    """The predicates on m_1 alone."""
    if m < max(params.min_m1, params.invertibles):
        return False
    if params.m1_square and isqrt(m) ** 2 != m:
        return False
    return m not in params.m1_exclude


def _min_run_ok(dims: tuple[int, ...], run: int | None) -> bool:
    """Some dim occurs at least `run` times; dims outside the equal groups
    are fixed, hence divisible by `run`, and group sizes are multiples of it."""
    if not run:
        return True
    counts = Counter(dims)
    return max(counts.values()) >= run and all(
        value % run == 0 or mult % run == 0 for value, mult in counts.items())
