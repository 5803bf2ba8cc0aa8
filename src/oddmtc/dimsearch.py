"""
Enumeration of candidate dimension arrays.

Two modes:

* basic: all non-invertible simple objects of a rank-n category with s
  invertible objects, so fpdim = s + 2*(d_1^2 + ... + d_k^2) with
  k = (n - s)/2 dual pairs.
* adjoint: non-invertible simples of the trivial grading component only,
  so fpdim = g * (s_ad + 2*sum d_i^2) where g is the global invertible
  count and (adjoint_rank, adjoint_invertibles) describe the component.

The search works on the quotients m_i = fpdim / d_i^2, which must be
odd positive integers with m_1 <= ... <= m_k.  Writing m_i = u_i^2 * w
(w squarefree, shared by all i), the state is the pair (u_i, c_i) where
c_i relates the remaining dimension budget to u_i^2; all bounds are
evaluated with exact rational arithmetic.

Every search, bounded or not, is one depth-first search over u-chains per
m1 branch (`_Engine`) with a single child generator.  The min_run predicate
rides along as a counter of the trailing run of equal u_i, which cuts and
extends states structurally.  The last level is closed in
`_Engine.final_node` by a divisor scan confined to the window [lo, hi] of
d_k that the final-level equation allows; the prime hint that factors its
target is built only there.  With fpdim_bound set, the same search adds
exact prunes (see `_Engine`); `tests/test_oracle.py` and Criterion 9 check
the bounded search against the brute-force oracle.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from math import gcd
from multiprocessing import Pool

from .exactmath import (
    InvariantError,
    factorize,
    is_prime_power,
    isqrt_exact,
    require,
    squarefree_split,
)
from .filters import p_batch_violation


class Mode(enum.Enum):
    BASIC = "basic"
    ADJOINT = "adjoint"


@dataclass(frozen=True)
class SearchParams:
    rank: int
    invertibles: int
    mode: Mode = Mode.BASIC
    adjoint_rank: int | None = None
    adjoint_invertibles: int | None = None
    min_m1: int = 1
    m1_square: bool = False
    m1_exclude: frozenset[int] = field(default_factory=frozenset)
    mi_coprime: int | None = None
    min_run: int | None = None
    fpdim_bound: int | None = None

    def __post_init__(self):
        if self.rank < 1 or self.rank % 2 == 0:
            raise ValueError("rank must be odd and positive")
        if self.invertibles < 1 or self.invertibles % 2 == 0:
            raise ValueError("invertibles must be odd and positive")
        if self.rank <= self.invertibles:
            raise ValueError("rank must exceed invertibles")
        if self.mode is Mode.ADJOINT:
            if self.adjoint_rank is None or self.adjoint_invertibles is None:
                raise ValueError("adjoint mode needs adjoint_rank and adjoint_invertibles")
            if (self.adjoint_rank % 2 == 0 or self.adjoint_invertibles % 2 == 0
                    or self.adjoint_invertibles < 1):
                raise ValueError("adjoint parameters must be odd and positive")
            if self.adjoint_rank <= self.adjoint_invertibles:
                raise ValueError("adjoint_rank must exceed adjoint_invertibles")
            if self.adjoint_rank > self.rank:
                raise ValueError("adjoint_rank must not exceed rank")
        if self.min_m1 < 1:
            raise ValueError("min_m1 must be positive")
        if self.mi_coprime is not None and self.mi_coprime < 2:
            raise ValueError("mi_coprime must be at least 2")
        if self.min_run is not None and self.min_run < 2:
            raise ValueError("min_run must be at least 2")
        if self.fpdim_bound is not None and self.fpdim_bound < 1:
            raise ValueError("fpdim_bound must be positive")

    # --- derived quantities -------------------------------------------------

    @property
    def layer_invertibles(self) -> int:
        """Invertible count of the searched layer (the s in the equation)."""
        if self.mode is Mode.BASIC:
            return self.invertibles
        return self.adjoint_invertibles

    @property
    def group_order(self) -> int:
        """Multiplier between the layer equation and the global fpdim."""
        return 1 if self.mode is Mode.BASIC else self.invertibles

    @property
    def k(self) -> int:
        """Number of dual pairs searched."""
        if self.mode is Mode.BASIC:
            return (self.rank - self.invertibles) // 2
        return (self.adjoint_rank - self.adjoint_invertibles) // 2

    @property
    def perfect(self) -> bool:
        """Whether the category has only the trivial invertible (|G(C)| = 1)."""
        return self.invertibles == 1

    @property
    def t(self) -> int:
        return self.dmin ** 2

    @property
    def dmin(self) -> int:
        """Smallest admissible non-invertible dimension."""
        return 15 if self.perfect else 3


@dataclass(frozen=True)
class DimSolution:
    fpdim: int
    invertibles: int
    dims: tuple[int, ...]
    quotients: tuple[int, ...]

    def sort_key(self):
        return (-self.fpdim, tuple(-d for d in self.dims))


@dataclass(frozen=True)
class RowDiff:
    missing: tuple[DimSolution, ...]  # in the reference rows, not produced
    extra: tuple[DimSolution, ...]    # produced, not in the reference rows

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra


def diff_rows(want, got) -> RowDiff:
    """The one row comparison: keyed by (fpdim, dims), ascending by key."""
    want = {(r.fpdim, r.dims): r for r in want}
    got = {(r.fpdim, r.dims): r for r in got}
    return RowDiff(tuple(r for key, r in sorted(want.items()) if key not in got),
                   tuple(r for key, r in sorted(got.items()) if key not in want))


def validate_solution(sol: DimSolution, params: SearchParams) -> None:
    """Independent re-check of every DimSolution invariant; raises
    InvariantError on failure.

    Deliberately computed from the defining equations, sharing nothing with
    the recursion that produced the solution.
    """
    s = params.layer_invertibles
    g = params.group_order
    require(sol.invertibles == s, "invertible count")
    require(len(sol.dims) == params.k, "number of dual pairs")
    require(sol.fpdim == g * (s + 2 * sum(d * d for d in sol.dims)), "fpdim equation")
    require(sol.fpdim % 2 == 1, "fpdim odd")
    require(sol.fpdim % 8 == params.rank % 8, "fpdim congruent to rank mod 8")
    require(list(sol.dims) == sorted(sol.dims, reverse=True), "dims nonincreasing")
    prev = 0
    for d, m in zip(sol.dims, sol.quotients):
        require(d % 2 == 1 and d >= 3, "dim odd and at least 3")
        require(m * d * d == sol.fpdim, "quotient times dim squared is fpdim")
        require(m % 2 == 1, "quotient odd")
        require(m >= prev, "quotients nondecreasing")
        prev = m
        if params.perfect:
            require(d >= 15 and not is_prime_power(d), "perfect-layer dim")


def _m1_upper_bound_holds(m1: int, params: SearchParams) -> bool:
    # m1 <= g*(2k + s/t), compared exactly: m1*t <= g*(2k*t + s)
    g = params.group_order
    return m1 * params.t <= g * (2 * params.k * params.t + params.layer_invertibles)


def m1_candidates(params: SearchParams) -> list[int]:
    """All admissible first quotients m_1, ascending."""
    lo = max(params.invertibles, params.min_m1)
    first = lo + (-(lo - params.rank)) % 8
    out = []
    m1 = first
    while _m1_upper_bound_holds(m1, params):
        out.append(m1)
        m1 += 8
    if params.m1_square:
        out = [m for m in out if isqrt_exact(m)[1]]
    if params.m1_exclude:
        out = [m for m in out if m not in params.m1_exclude]
    if params.mi_coprime:
        out = [m for m in out if m % params.mi_coprime != 0]
    return out


def _min_run_ok(dims: tuple[int, ...], length: int) -> bool:
    """Compatibility with an order-L symmetry that moves at least one object:
    some value occurs at least L times, and the p-batch rule holds for
    p = L (non-fixed dual pairs come in groups of L equal dims, fixed ones
    have dims divisible by L)."""
    return max(Counter(dims).values()) >= length and p_batch_violation(dims, length) is None


def _finish(us, dk: int, w: int, params: SearchParams) -> DimSolution | None:
    """Dim reconstruction and predicate checks for a full u-chain ending in d_k."""
    if dk < params.dmin or dk % 2 == 0:
        return None
    uk = us[-1]
    fpdim = w * uk * uk * dk * dk
    if params.fpdim_bound is not None and fpdim > params.fpdim_bound:
        return None
    dims = []
    for u in us:
        q, r = divmod(dk * uk, u)
        if r:
            return None
        dims.append(q)
    # every d_i = d_k * u_k / u_i >= d_k, so the d_k test above sets the floor
    if params.perfect and any(is_prime_power(d) for d in dims):
        return None
    dims = tuple(dims)
    if params.min_run is not None and not _min_run_ok(dims, params.min_run):
        return None
    quotients = tuple(w * u * u for u in us)
    return DimSolution(fpdim, params.layer_invertibles, dims, quotients)


@cache
def _prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n).factors)


def _factor_with_hint(n: int, primes) -> list[tuple[int, int]]:
    """Factor n whose prime divisors are all among the distinct `primes`."""
    fac = []
    m = n
    for p in primes:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac.append((p, e))
    if m != 1:
        raise InvariantError("prime hint set incomplete")
    return fac


def _square_divisor_roots(fac: list[tuple[int, int]], hi: int) -> list[int]:
    """All d <= hi with d^2 dividing the factored number, ascending."""
    roots = [1] if hi >= 1 else []
    for p, e in fac:
        grown = []
        q = p
        for _ in range(e // 2):
            grown += [r * q for r in roots[:bisect_right(roots, hi // q)]]
            q *= p
        if grown:
            roots += grown
            roots.sort()
    return roots


class _Engine:
    """Depth-first search over the u-chains of one m1 branch.

    The state of level i is the exact rational c_i held as a reduced
    integer pair (A, B) with c_i = A/B, together with the u-chain so far.
    The level-k test (d_k^2 = s/c_k a perfect square) is answered without
    scanning: every valid d_k satisfies d_k^2 | s*B*u^2, so candidates are
    read off the square divisors of that number.  Its prime factors are
    known because B divides g times the product of the u_i^2; the hint
    holding them (the primes of s, g, w and of the path) is built in
    `final_node` alone, since most pushed states never reach the last level.

    `final_node` scans only the roots d in a window [lo, hi] implied by the
    final-level equation A*d^2*u_k^2 = B*u^2*(s + 2*d^2):
    * u_k >= u needs (A - 2B)*d^2 <= s*B, which bounds d above when A > 2B;
    * the part a of A prime to s*B*u^2 divides s + 2*d^2, so
      d^2 >= (a - s)/2, and a root is dropped before the big-integer
      division unless s + 2*d^2 = 0 mod a.
    A state whose window is empty returns before anything is factored.

    With min_run = L, a chain must hold L consecutive equal u_i (equal u
    gives equal dims).  Each state carries `run`, the length of its trailing
    run of equal u, which stays at L once reached; L = 1 when min_run is
    unset, so every state is already free.  A state with run < L is cut
    when the run can no longer reach L, and has its run extended to L in
    one step (each level is c -> c - 2) once no fresh run fits in the
    levels left.

    With fpdim_bound set, D = d_i*u_i = sqrt(fpdim/w) is the same at every
    level, so D <= Dmax = isqrt(bound // w), and D is a multiple of every u_i.
    As every d_j >= dmin, c_i >= (u_i/D)^2 * (s + 2*rem*dmin^2).  Hence, all
    exactly:
    * a state is cut when u^2*B*(s + 2*rem*dmin^2) > A*Dmax^2;
    * the child scan starts at the least u' with
      u'^2*(A*Dmax^2 - B*u^2*X') >= 2*B*u^2*Dmax^2, X' = s + 2*(rem-1)*dmin^2,
      yields nothing when that bracket is <= 0, and stops at Dmax // dmin;
    * a child u' is skipped before it is built unless
      lcm(path, u') <= Dmax, tested as u' // gcd(lcm, u') <= Dmax // lcm;
    * `final_node` caps hi at Dmax // u, and `_finish` drops fpdim > bound.
    """

    def __init__(self, params: SearchParams, w: int):
        self.params = params
        self.w = w
        self.s = params.layer_invertibles
        self.t = params.t
        self.k = params.k
        self.L = params.min_run or 1
        self.cop = params.mi_coprime or 0
        self.dmin = params.dmin
        # D = d_i*u_i = sqrt(fpdim/w) is shared by every level
        bound = params.fpdim_bound
        self.Dmax = None if bound is None else math.isqrt(bound // w)
        # the prime hint of final_node holds the primes of these and of the path
        self.base = (self.s, params.group_order, w)
        self.out: list[DimSolution] = []

    def final_node(self, A: int, B: int, u: int, path) -> None:
        """rem = 1: emit every (u_k, d_k) completion of this state.

        A completion solves A*d^2*u_k^2 = B*u^2*(s + 2*d^2) with d = d_k.
        """
        s = self.s
        u2 = u * u
        target = s * B * u2
        # u_k >= u needs (A - 2B)*d^2 <= s*B
        hi = math.isqrt(s * B // (A - 2 * B)) if A > 2 * B else math.isqrt(target)
        # a, the part of A prime to target, is prime to B*u^2, so a | s + 2*d^2
        a = A
        g = gcd(a, target)
        while g != 1:
            a //= g
            g = gcd(a, g)
        lo = max(self.dmin, math.isqrt(max(a - s, 0) // 2))
        if self.Dmax is not None:
            hi = min(hi, self.Dmax // u)  # d*u <= d*u_k = D
        if lo > hi:
            return
        hint = dict.fromkeys(chain.from_iterable(map(_prime_factors, self.base + path)))
        roots = _square_divisor_roots(_factor_with_hint(target, hint), hi)
        for d in roots[bisect_left(roots, lo):]:
            if (s + 2 * d * d) % a:
                continue
            An = target // (d * d)
            q, r = divmod(An + 2 * B * u2, A)
            if r:
                continue
            up, square = isqrt_exact(q)
            if not square or up < u or up % 2 == 0 or (self.cop and up % self.cop == 0):
                continue
            sol = _finish(path + (up,), d, self.w, self.params)
            if sol is not None:
                self.out.append(sol)

    def final_chain(self, A: int, B: int, path) -> None:
        """Full-length chain: test d_k^2 = s*B/A directly."""
        num = self.s * B
        if num % A:
            return
        d, square = isqrt_exact(num // A)
        if square and d >= self.dmin:
            sol = _finish(path, d, self.w, self.params)
            if sol is not None:
                self.out.append(sol)

    def children(self, A: int, B: int, u: int, rem: int, lo: int, path):
        """Continuations (u', A', B') of state c = A/B at u with rem levels
        left: u itself first (c' = c - 2 > 0), then each u' > u with
        c' = A'/B' > lo - 2."""
        u2 = u * u
        # every level still to come needs c' <= s/t + 2*(rem - 1)
        top = math.isqrt((self.s + 2 * rem * self.t) * u2 * B // (self.t * A))
        first = max(u + 2, math.isqrt(lo * B * u2 // A) - 2) | 1
        Dmax = self.Dmax
        if Dmax is not None:
            # c' >= (u'/Dmax)^2 * X' with X' = s + 2*(rem - 1)*dmin^2
            D2 = Dmax * Dmax
            bracket = A * D2 - B * u2 * (self.s + 2 * (rem - 1) * self.dmin ** 2)
            if bracket <= 0:
                return
            least = -(-2 * B * u2 * D2 // bracket)  # u'^2 >= least
            first = max(first, math.isqrt(least - 1) + 1) | 1
            top = min(top, Dmax // self.dmin)
        if A > 2 * B and u <= top:
            An = A - 2 * B
            g2 = gcd(An, B)
            yield u, An // g2, B // g2
        ups = range(first, top + 1, 2)
        if Dmax is not None:
            # D is a multiple of lcm(path, u'), so that lcm is at most Dmax
            lcm = math.lcm(*path)
            cap = Dmax // lcm
            ups = (up for up in ups if up // gcd(lcm, up) <= cap)
        floor = (lo - 2) * B * u2
        for up in ups:
            if not self.cop or up % self.cop:
                An = A * up * up - 2 * B * u2
                if An > floor:
                    Bn = B * u2
                    g2 = gcd(An, Bn)
                    yield up, An // g2, Bn // g2

    def search(self, A0: int, B0: int, u1: int) -> None:
        k = self.k
        L = self.L
        Dmax = self.Dmax
        if Dmax is not None:
            D2 = Dmax * Dmax
            dmin2 = self.dmin ** 2
        stack = [(1, A0, B0, u1, (u1,), 1)]
        while stack:
            i, A, B, u, path, run = stack.pop()
            if run < L:
                need = L - run
                if k - i < need:
                    continue
                if k - i < L:
                    # no fresh run fits: the trailing run must grow to L
                    A -= 2 * need * B
                    if A <= 0:
                        continue
                    g2 = gcd(A, B)
                    A, B = A // g2, B // g2
                    i, path, run = i + need, path + (u,) * need, L
            rem = k - i
            # c_i >= (u_i/D)^2 * (s + 2*rem*dmin^2), as every d_j >= dmin
            if Dmax is not None and u * u * B * (self.s + 2 * rem * dmin2) > A * D2:
                continue
            if rem == 0:
                self.final_chain(A, B, path)
                continue
            if rem == 1:
                self.final_node(A, B, u, path)
                continue
            # a value opened now must carry the run itself when no fresh
            # run fits after it, which needs c' > 2*(L - 1)
            lo = 2 * L if run < L and rem - 1 < L else 2
            for up, An, Bn in self.children(A, B, u, rem, lo, path):
                nrun = run if run == L else run + 1 if up == u else 1
                stack.append((i + 1, An, Bn, up, path + (up,), nrun))


def _search_branch(args) -> list[DimSolution]:
    """All solutions of one m1 branch."""
    params, m1 = args
    g = params.group_order
    A0, B0 = m1 - 2 * g, g
    if A0 <= 0:
        return []
    gg = gcd(A0, B0)
    u1, w = squarefree_split(m1)
    eng = _Engine(params, w)
    eng.search(A0 // gg, B0 // gg, u1)
    return eng.out


def enumerate_solutions(params: SearchParams, jobs: int = 1) -> list[DimSolution]:
    """Complete, duplicate-free, canonically ordered list of solutions."""
    if jobs < 1:
        raise ValueError("jobs must be positive")
    m1s = m1_candidates(params)
    if jobs > 1 and len(m1s) > 1:
        with Pool(min(jobs, len(m1s))) as pool:
            chunks = pool.map(_search_branch, [(params, m1) for m1 in m1s], chunksize=1)
    else:
        chunks = [_search_branch((params, m1)) for m1 in m1s]
    out = [sol for chunk in chunks for sol in chunk]
    require(len({(s.fpdim, s.dims) for s in out}) == len(out), "duplicate solutions")
    for sol in out:
        validate_solution(sol, params)
    return sorted(out, key=DimSolution.sort_key)
