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
rides along as a counter of the trailing run of equal u_i, and one rule
closes, extends or drops a state once no fresh run fits.
`_Engine.final_node` ends a chain whose new value u_k fills the last level,
or all L levels of a min-run tail, by a scan of the odd u_k that the window
[lo, hi] of d_k allows; nothing is factored there.  With fpdim_bound set,
the same search adds exact prunes (see `_Engine`); `tests/test_oracle.py`
and Criterion 9 check the bounded search against the brute-force oracle.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from multiprocessing import Pool

from .exactmath import (
    InvariantError,
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


class _Engine:
    """Depth-first search over the u-chains of one m1 branch.

    The state of level i is the exact rational c_i held as a reduced
    integer pair (A, B) with c_i = A/B, together with the u-chain so far.

    `final_node` closes a state at u whose new value u_k fills the last
    n = `levels` levels (1 at rem = 1, L in a min-run tail, where u_k > u).
    Then A*d^2*u_k^2 = B*u^2*(s + 2n*d^2) confines d = d_k to [lo, hi]:
    * u_k >= u needs (A - 2nB)*d^2 <= s*B, which bounds d above when A > 2nB;
    * the part a of A prime to s*B*u^2 divides s + 2n*d^2, so
      d^2 >= (a - s)/2n.
    Written as A*u_k^2 = target/d^2 + 2n*B*u^2 with target = s*B*u^2, the
    right side falls as d grows, so the window maps onto the odd u_k from
    max(u, isqrt((target // hi^2 + 2n*B*u^2) // A)) (u + 2 when n > 1) up
    to top = isqrt((target // lo^2 + 2n*B*u^2) // A).  `top` is exact: d^2
    divides target, so target/d^2 is an integer <= target // lo^2.  Each
    u_k in range gives X = A*u_k^2 - 2n*B*u^2, and a completion needs X > 0,
    X | target and target/X = d^2 a square.  As s/d^2 is small next to 2n,
    u_k sits near u*sqrt(2nB/A) and the range is short; a state whose window
    is empty returns at once.

    With min_run = L, a chain must hold L consecutive equal u_i (equal u
    gives equal dims).  Each state carries `run`, the length of its trailing
    run of equal u, which stays at L once reached; L = 1 when min_run is
    unset, so every state is already free.  One rule serves a state with
    run < L and rem <= L, after whose new value u' > u no fresh run fits.
    At rem = L, u' may still fill all L levels, and `final_node` closes it
    with n = L.  Then the trailing run grows to L in one step (each level
    is c -> c - 2), and the state is dropped when the need = L - run levels
    exceed rem or leave c <= 0.  `final_chain` closes the full-length
    chains: every k = 1 search (L = 1) and the chain a run extension
    completes at the root (k = L).  `_finish` applies the p-batch rule of
    `_min_run_ok` to every row.

    With fpdim_bound set, D = d_i*u_i = sqrt(fpdim/w) is the same at every
    level, so D <= Dmax = isqrt(bound // w), and D is a multiple of every u_i.
    As every d_j >= dmin, c_i >= (u_i/D)^2 * (s + 2*rem*dmin^2).  The bounded
    search adds three exact tests ("the sweep": the 57 (rank, s) pairs of the
    oracle sweep at bound 10^6, on 2 cores with Python 3.11):
    * the state cut, u^2*B*(s + 2*rem*dmin^2) > A*Dmax^2, once per popped
      state: the sweep's searches take 5.3-5.9 s with it and 16-19 s without.
      A state that passes has `top` <= Dmax // dmin, and a child it would
      cut is cut when popped.
    * the lcm cap, the only bounded filter in `children`: a child u' is
      skipped unless lcm(path, u') <= Dmax, tested as
      u' // gcd(lcm, u') <= Dmax // lcm.  Without it the sweep did not
      finish in 900 s.
    * `_finish` drops fpdim > bound: that test defines the bound, and it is
      the only bound test on the rows of `final_node` and `final_chain`.
    The floor `a` puts on d in `final_node` serves every search: without it,
    verifying T1-T4, T6 and T7 took 9.0 s instead of 1.8 s, T8 12.1 s instead
    of 2.2 s, and T5 14.2 s instead of 1.8 s.
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
        self.out: list[DimSolution] = []

    def final_node(self, A: int, B: int, u: int, path, levels: int) -> None:
        """Emit the completions whose new value u_k fills the last n = `levels`
        levels: A*u_k^2 = target/d^2 + 2n*B*u^2 with d = d_k and
        target = s*B*u^2, over the odd u_k its window allows (see above)."""
        s = self.s
        u2 = u * u
        target = s * B * u2
        B2 = 2 * levels * B * u2
        # u_k >= u needs (A - 2nB)*d^2 <= s*B
        An = A - 2 * levels * B
        hi = math.isqrt(s * B // An) if An > 0 else math.isqrt(target)
        # a, the part of A prime to target, is prime to B*u^2, so a | s + 2n*d^2
        a = A
        g = gcd(a, target)
        while g != 1:
            a //= g
            g = gcd(a, g)
        lo = max(self.dmin, math.isqrt(max(a - s, 0) // (2 * levels)))
        if lo > hi:
            return
        # target/d^2 is an integer in [target // hi^2, target // lo^2]
        first = max(u if levels == 1 else u + 2,
                    math.isqrt((target // (hi * hi) + B2) // A)) | 1
        top = math.isqrt((target // (lo * lo) + B2) // A)
        for up in range(first, top + 1, 2):
            if self.cop and self.w * up * up % self.cop == 0:
                continue
            X = A * up * up - B2
            if X <= 0 or target % X:
                continue
            # a root d lies in [lo, hi] or fails _finish: the window follows
            # from the equation and dmin
            d, square = isqrt_exact(target // X)
            if square:
                sol = _finish(path + (up,) * levels, d, self.w, self.params)
                if sol is not None:
                    self.out.append(sol)

    def final_chain(self, A: int, B: int, path) -> None:
        """Full-length chain: test d_k^2 = s*B/A directly.  Every k = 1
        search gets here, and the chain a run extension completes at the
        root (k = L)."""
        num = self.s * B
        if num % A:
            return
        d, square = isqrt_exact(num // A)
        if square:
            sol = _finish(path, d, self.w, self.params)
            if sol is not None:
                self.out.append(sol)

    def children(self, A: int, B: int, u: int, rem: int, path):
        """Continuations (u', A', B') of state c = A/B at u with rem levels
        left: u itself first, then each u' > u, all with c' = A'/B' > 0.
        A'/B' is not reduced."""
        u2 = u * u
        # every level still to come needs c' <= s/t + 2*(rem - 1)
        top = math.isqrt((self.s + 2 * rem * self.t) * u2 * B // (self.t * A))
        first = max(u + 2, math.isqrt(2 * B * u2 // A) - 2) | 1
        if A > 2 * B and u <= top:
            yield u, A - 2 * B, B
        ups = range(first, top + 1, 2)
        if self.Dmax is not None:
            # D is a multiple of lcm(path, u'), so that lcm is at most Dmax
            lcm = math.lcm(*path)
            cap = self.Dmax // lcm
            ups = (up for up in ups if up // gcd(lcm, up) <= cap)
        for up in ups:
            # mi_coprime constrains the quotient w*u'^2, not u' alone
            if not self.cop or self.w * up * up % self.cop:
                An = A * up * up - 2 * B * u2
                if An > 0:
                    yield up, An, B * u2

    def search(self, A0: int, B0: int, u1: int) -> None:
        k = self.k
        L = self.L
        Dmax = self.Dmax
        if Dmax is not None:
            D2 = Dmax * Dmax
            dmin2 = self.dmin ** 2
        stack = [(A0, B0, (u1,), 1)]
        while stack:
            A, B, path, run = stack.pop()
            u = path[-1]
            rem = k - len(path)
            # c_i >= (u_i/D)^2 * (s + 2*rem*dmin^2), as every d_j >= dmin
            if Dmax is not None and u * u * B * (self.s + 2 * rem * dmin2) > A * D2:
                continue
            if run < L and rem <= L:
                # after a u' > u no fresh run fits, unless u' fills all L levels
                if rem == L:
                    self.final_node(A, B, u, path, L)
                # otherwise the trailing run grows to L (each level is c -> c - 2)
                need = L - run
                A -= 2 * need * B
                if need > rem or A <= 0:
                    continue
                g2 = gcd(A, B)
                A, B = A // g2, B // g2
                path, run, rem = path + (u,) * need, L, rem - need
            if rem == 0:
                self.final_chain(A, B, path)
            elif rem == 1:
                self.final_node(A, B, u, path, 1)
            else:
                for up, An, Bn in self.children(A, B, u, rem, path):
                    nrun = run if run == L else run + 1 if up == u else 1
                    g2 = gcd(An, Bn)
                    stack.append((An // g2, Bn // g2, path + (up,), nrun))


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
