"""
Enumeration of candidate dimension arrays.

A search covers the non-invertible simple objects of one layer:

* without the adjoint pair, every non-invertible simple of a rank-n
  category with s invertible objects, so fpdim = s + 2*(d_1^2 + ... + d_k^2)
  with k = (n - s)/2 dual pairs;
* with the pair (adjoint_rank, adjoint_invertibles) = (n_ad, s_ad) given,
  only the non-invertible simples of the trivial grading component, so
  fpdim = g * (s_ad + 2*sum d_i^2) with k = (n_ad - s_ad)/2, where the
  group order g is the global invertible count.

The search works on the quotients m_i = fpdim / d_i^2, which must be
odd positive integers with m_1 <= ... <= m_k.  Writing m_i = u_i^2 * w
(w squarefree, shared by all i), D = d_i*u_i is the same at every level and
a multiple of l = lcm(u_1, ..., u_i).  The state is the integer pair (Q, l)
with Q*(D/l)^2 = g*(s + 2*sum_{j>i} d_j^2) (g = 1 without the adjoint
pair), the remaining dimension budget, so every bound is exact integer
arithmetic.

`_Engine`, one depth-first search over the u-chains of each m1 branch,
states every close and the proof of each bound.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from math import gcd, isqrt
from operator import attrgetter

from .exactmath import (
    InvariantError,
    is_prime_power,
    isqrt_exact,
    require,
    squarefree_split,
)
from .filters import p_batch_violation


@dataclass(frozen=True)
class SearchParams:
    rank: int
    invertibles: int
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
        if (self.adjoint_rank is None) != (self.adjoint_invertibles is None):
            raise ValueError("adjoint_rank and adjoint_invertibles must be given together")
        if self.adjoint_rank is not None:
            if (self.adjoint_rank % 2 == 0 or self.adjoint_invertibles % 2 == 0
                    or self.adjoint_invertibles < 1):
                raise ValueError("adjoint parameters must be odd and positive")
            if self.adjoint_rank <= self.adjoint_invertibles:
                raise ValueError("adjoint_rank must exceed adjoint_invertibles")
            if self.adjoint_rank > self.rank:
                raise ValueError("adjoint_rank must not exceed rank")
            # fpdim = rank from m_1, and = g*adjoint_rank from the layer equation
            if (self.rank - self.invertibles * self.adjoint_rank) % 8:
                raise ValueError("rank must be congruent to invertibles * adjoint_rank mod 8")
        if self.min_m1 < 1:
            raise ValueError("min_m1 must be positive")
        if self.mi_coprime is not None and self.mi_coprime < 2:
            raise ValueError("mi_coprime must be at least 2")
        if self.min_run is not None and self.min_run < 2:
            raise ValueError("min_run must be at least 2")
        if self.min_run is not None and self.min_run > self.k:
            raise ValueError("min_run must not exceed the number of dual pairs searched")
        if self.fpdim_bound is not None and self.fpdim_bound < 1:
            raise ValueError("fpdim_bound must be positive")

    # --- derived quantities -------------------------------------------------

    @property
    def layer_invertibles(self) -> int:
        """Invertible count of the searched layer (the s in the equation)."""
        return self.invertibles if self.adjoint_invertibles is None else self.adjoint_invertibles

    @property
    def group_order(self) -> int:
        """Multiplier between the layer equation and the global fpdim."""
        return 1 if self.adjoint_rank is None else self.invertibles

    @property
    def k(self) -> int:
        """Number of dual pairs searched."""
        layer_rank = self.rank if self.adjoint_rank is None else self.adjoint_rank
        return (layer_rank - self.layer_invertibles) // 2

    @property
    def perfect(self) -> bool:
        """Whether the category has only the trivial invertible (|G(C)| = 1)."""
        return self.invertibles == 1

    @property
    def dmin(self) -> int:
        """Smallest admissible non-invertible dimension."""
        return 15 if self.perfect else 3


@dataclass(frozen=True, slots=True)
class DimSolution:
    """A row is (fpdim, dims); its invertible count is its search's layer_invertibles."""
    fpdim: int
    dims: tuple[int, ...]

    @property
    def quotients(self) -> tuple[int, ...]:
        """m_i = fpdim / d_i^2, rounded down; exact for every row that
        passes `validate_solution`."""
        return tuple(self.fpdim // (d * d) for d in self.dims)

    def sort_key(self):
        """Ascending key of the canonical order.  It copies the dims negated,
        so `canonical` does not use it; `perfbench/workload.py` does."""
        return (-self.fpdim, tuple(-d for d in self.dims))


def canonical(rows) -> list[DimSolution]:
    """Rows in canonical order: fpdim descending, then dims descending.

    Two stable passes, by dims and then by fpdim, each keyed by an attribute
    the row already holds, so no (fpdim, dims) key tuple is built per row; a
    reverse sort keeps equal keys in their order, so the second pass keeps
    the first one's order within each fpdim.  The rows of one search all
    have k dims, so this is the order of `DimSolution.sort_key`, without a
    copy of any row, and equal rows end up next to each other."""
    out = sorted(rows, key=attrgetter("dims"), reverse=True)
    out.sort(key=attrgetter("fpdim"), reverse=True)
    return out


@contextmanager
def _collector_paused():
    """Pause Python's cyclic collector and restore its state on the way out,
    a raise included.  The search and the row comparison make many objects
    and no reference cycle, so a collection there finds nothing to free."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


@dataclass(frozen=True)
class RowDiff:
    missing: tuple[DimSolution, ...]  # in the reference rows, not produced
    extra: tuple[DimSolution, ...]    # produced, not in the reference rows

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra


def diff_rows(want, got) -> RowDiff:
    """The one row comparison, on the rows themselves.

    Both sides come in canonical order and are walked once, in step, and
    neither is held: a `got` row that sorts above the current `want` row is
    extra, an equal one is checked off, and a `want` row that meets none, a
    second copy included, is missing.  In any order, the diff is empty
    exactly when the sides are equal.  Missing and extra are reversed to
    ascend by (fpdim, dims).  The collector is paused (`_collector_paused`).
    """
    missing, extra = [], []
    with _collector_paused():
        got = iter(got)
        g = next(got, None)
        for w in want:
            while g is not None and (g.fpdim, g.dims) > (w.fpdim, w.dims):
                extra.append(g)
                g = next(got, None)
            if g == w:
                g = next(got, None)
            else:
                missing.append(w)
        if g is not None:
            extra += [g, *got]
    return RowDiff(tuple(reversed(missing)), tuple(reversed(extra)))


def validate_solution(sol: DimSolution, params: SearchParams) -> None:
    """Independent re-check of every DimSolution invariant; raises
    InvariantError on failure.

    Deliberately computed from the defining equations, sharing nothing with
    the recursion that produced the solution, in one pass over the dims.
    Quotients need no check: an exact quotient of the odd fpdim is odd, and
    those of nonincreasing dims are nondecreasing.  Each odd d in 3..13 is
    a prime power, so the perfect-layer test also keeps d >= 15.
    """
    fpdim, dims, s = sol.fpdim, sol.dims, params.layer_invertibles
    require(len(dims) == params.k, "number of dual pairs")
    require(fpdim % 2 == 1, "fpdim odd")
    require(fpdim % 8 == params.rank % 8, "fpdim congruent to rank mod 8")
    require(fpdim == params.group_order * (s + 2 * sum(d * d for d in dims)), "fpdim equation")
    # the search's rows meet the bound through `_Engine.emit`; this checks them
    require(params.fpdim_bound is None or fpdim <= params.fpdim_bound, "fpdim within bound")
    perfect = params.perfect
    prev = dims[0]
    for d in dims:
        if d > prev:
            raise InvariantError("dims nonincreasing")
        if d < 3 or d % 2 == 0:
            raise InvariantError("dim odd and at least 3")
        if fpdim % (d * d):
            raise InvariantError("quotient times dim squared is fpdim")
        if perfect and is_prime_power(d):
            raise InvariantError("perfect-layer dim")
        prev = d


def m1_candidates(params: SearchParams) -> list[int]:
    """All admissible first quotients m_1, ascending."""
    lo = max(params.invertibles, params.min_m1)
    first = lo + (-(lo - params.rank)) % 8
    g, k, s, t = params.group_order, params.k, params.layer_invertibles, params.dmin ** 2
    # m1 <= g*(2k + s/t), compared exactly: m1 <= g*(2k*t + s) // t
    out = list(range(first, g * (2 * k * t + s) // t + 1, 8))
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


class _Engine:
    """Depth-first search over the u-chains of one m1 branch.

    D = d_i*u_i = sqrt(fpdim/w) is the same at every level, and a multiple
    of every u_i.  The state of level i is the integer pair (Q, l) with
    l = lcm(u_1, ..., u_i) and Q = l^2*(w - 2g*sum_{j<=i} 1/u_j^2), together
    with the u-chain so far.  With e = D/l, a whole number,
    Q*e^2 = g*(s + 2*sum_{j>i} d_j^2), so a live state has Q > 0.  The root
    is Q = m1 - 2g, l = u_1; a child u' with h = gcd(l, u') and r = u'/h
    has l' = l*r and Q' = Q*r^2 - 2g*(l/h)^2.  Every close passes its rows
    to `emit`, the one row builder: `final_node` with D = d*u_k,
    `final_chain` with D = e*l and `final_pick` with D = l.

    `final_node` closes a batch of states (u, Q, l) whose new value u_k
    fills the last n = `levels` levels (1 at rem = 1, L in a min-run tail,
    where u_k > u).  A state at rem = 2 passes its children as one batch, with
    no push, pop or path per child: by the min-run rule below, a state there
    has run = L, so each child closes at rem = 1.
    With N = 2n*g*l^2 and T = s*g*l^2, Q*u_k^2 = T/d^2 + N for d = d_k:
    * with G = gcd(Q, g*l^2), a = Q/G is prime to g*l^2/G, so
      Q*(u_k*d)^2 = g*l^2*(s + 2n*d^2) gives a | s + 2n*d^2 > 0, and
      d^2 >= lo2 = max(dmin^2, (a - s) // 2n);
    * so X = Q*u_k^2 - N = T/d^2 is an integer with X*lo2 <= T, and u_k is
      at most top = isqrt((T // lo2 + N) // Q) and at least `first`, the
      least odd u_k >= u + skip (skip = 0, or 2 when n > 1) with X > 0.
      That is u + skip itself when Q*(u + skip)^2 > N, and
      isqrt(N // Q) + 1, made odd, otherwise: isqrt(N // Q) >= m exactly
      when N >= Q*m^2.
    A state returns when `first` has X*lo2 > T, which is exactly first > top
    and saves the division and the isqrt for top, where most states return.
    Otherwise each u_k in range needs X | T and T/X = d^2 a square, and then
    d^2 >= lo2 >= dmin^2.
    As s/d^2 is small next to 2n, u_k sits near l*sqrt(2n*g/Q): most states
    scan nothing.

    With min_run = L <= k, a chain must hold L consecutive equal u_i (equal
    u gives equal dims).  Each state carries `run`, the length of its
    trailing run of equal u, which stays at L once reached; L = 1 when
    min_run is unset, so every state is already free.  A k = L search,
    every k = 1 search among them, has one chain, u_1 at every level, and
    `final_chain` closes it before the loop.  Past it k > L, so the root
    has rem >= L, and so has every state with run < L: its parent had
    run < L, and rem > L as the rule skipped it.  The rule serves run < L
    at rem = L, where a new u' > u leaves no room for a fresh run unless it
    fills all L levels, which `final_node` closes with n = L.  Then the run
    grows to L in one step (each level takes 2g*(l/u)^2 from Q), over
    L - run < rem levels to rem = run >= 1, so no state has rem = 0; it is
    dropped on Q <= 0.  `emit` applies the p-batch rule of `_min_run_ok` to
    every row.

    With fpdim_bound set, D <= Dmax = isqrt(bound // w), and as every
    d_j >= dmin, Q*e^2 >= g*(s + 2*rem*dmin^2).  The bounded search adds
    four exact steps:
    * the state cut, g*(s + 2*rem*dmin^2)*l^2 > Q*Dmax^2, once per popped
      state.  A state that passes has `top` <= Dmax // dmin, and a child it
      would cut is cut when popped.  The children of a rem = 2 state are not
      popped: they close in `final_node`, exact for any state, past the cut
      and the D = l close.
    * the D = l close: D is an odd multiple of l, so Dmax < 3l gives D = l,
      and `final_pick` closes the state (rem >= 1) with no child scan.  Each
      later d_j = l/u_j is an odd divisor of l in [dmin, l/u], and their
      squares sum to exactly H = (Q - g*s)/2g; the pick tests
      need*(smallest d)^2 <= budget <= need*(next d)^2 before each step.
      With Dmax // l < 3, `kept(l)` below is the odd divisors v of l, and
      `final_pick` bisects it to [u, l // dmin].  It reads each d = l // v,
      the path's dims included, from `l_dims[l]`, the list of those dims
      built beside `kept(l)` at its first pick of l, so the rows closed at
      one l share their dim int objects, with no per-dim lookup in `emit`.
    * the lcm cap, the only bounded step in `children`, which sees only
      Dmax // l >= 3: D is a multiple of l' = l*r with h = gcd(l, u') and
      r = u'/h, so only a u' with r <= Dmax // l can lead to a row.  It is a
      pure prune: every row below any other child has D >= l' > Dmax.
      `kept` lists those u' once per l, ascending, less those mi_coprime
      rules out: u' = h*r with h | l, r <= Dmax // l odd and
      gcd(l/h, r) = 1, one form per u'.  `children` bisects the list to
      [first, top].
    * `emit` drops D > Dmax, which is exactly fpdim > bound: that test
      defines the bound, and it is the only bound test on any row.
    The floor `a` puts on d in `final_node` serves every search: a lo2
    above dmin^2 returns more states at the first test and lowers `top`.
    """

    def __init__(self, params: SearchParams, w: int):
        self.params = params
        self.w = w
        self.s = params.layer_invertibles
        self.g = params.group_order
        self.k = params.k
        self.L = params.min_run or 1
        self.cop = params.mi_coprime or 0
        self.dmin = params.dmin
        self.dmin2 = params.dmin ** 2
        bound = params.fpdim_bound
        self.Dmax = None if bound is None else isqrt(bound // w)
        self.out: list[DimSolution] = []
        self.l_kept: dict[int, list[int]] = {}
        self.l_dims: dict[int, list[int]] = {}
        self.fpdims: dict[int, int] = {}

    def final_node(self, prefix, states, levels: int) -> None:
        """Emit prefix + (u,) + (u_k,)*n for each state (u, Q, l) of `states`
        whose new u_k fills the last n = `levels` levels (see above)."""
        s, g, dmin2, w, cop = self.s, self.g, self.dmin2, self.w, self.cop
        n2 = 2 * levels
        # u_k > u when n > 1: the min-run rule grows the run of u itself
        skip = 0 if levels == 1 else 2
        for u, Q, l in states:
            gl2 = g * l * l
            N = n2 * gl2
            # the least odd u_k >= u + skip with X = Q*u_k^2 - N > 0; u + skip
            # is odd, and isqrt(N // Q) >= u + skip exactly when N >= Q*(u + skip)^2
            first = u + skip
            X = Q * first * first - N
            if X <= 0:
                first = (isqrt(N // Q) + 1) | 1
                X = Q * first * first - N
            # a divides s + 2n*d^2 > 0, so d^2 >= lo2 >= dmin^2
            lo2 = (Q // gcd(Q, gl2) - s) // n2
            if lo2 < dmin2:
                lo2 = dmin2
            # X = T/d^2 with d^2 >= lo2, so X*lo2 <= T
            T = s * gl2
            if X * lo2 > T:
                continue
            top = isqrt((T // lo2 + N) // Q)
            for up in range(first, top + 1, 2):
                if cop and w * up * up % cop == 0:
                    continue
                X = Q * up * up - N
                if T % X:
                    continue
                d, square = isqrt_exact(T // X)
                if square:
                    self.emit(d * up, prefix + (u,) + (up,) * levels)

    def final_chain(self, Q: int, l: int, path) -> None:
        """The one chain of a k = L search, whole: Q*e^2 = g*s, so with
        Q > 0 test e^2 = g*s/Q directly, then D = e*l."""
        num = self.g * self.s
        if Q <= 0 or num % Q:
            return
        e, square = isqrt_exact(num // Q)
        if square:
            self.emit(e * l, path)

    def emit(self, D: int, path, tail=()) -> None:
        """The one row builder: dims D/u_j over the u-chain `path`, then the
        closing dims `tail`, with fpdim = w*D^2.  The row is dropped unless
        every D/u_j is whole, D <= Dmax (exactly fpdim <= bound, as
        Dmax = isqrt(bound // w)), no dim of a perfect layer is a prime
        power, and `_min_run_ok` holds with min_run.  Every dim is odd, as
        u, l, d and e are, and each close picks its last (least) dim >= dmin:
        `final_node`'s d^2 >= lo2, `final_pick`'s divisors l/v, and for the k
        equal dims of `final_chain`, `m1_candidates`' cap m1 <= g*(2k + s/dmin^2)."""
        if self.Dmax is not None and D > self.Dmax:
            return
        dims = []
        for u in path:
            q, r = divmod(D, u)
            if r:
                return
            dims.append(q)
        dims = tuple(dims) + tail
        if (self.params.perfect and any(is_prime_power(d) for d in dims)
                or self.L > 1 and not _min_run_ok(dims, self.L)):
            return
        # the rows of one D share one fpdim int object, which saves memory
        fpdim = self.fpdims.get(D)
        if fpdim is None:
            fpdim = self.fpdims[D] = self.w * D * D
        self.out.append(DimSolution(fpdim, dims))

    def final_pick(self, Q: int, l: int, u: int, path, rem: int) -> None:
        """Close a bounded state with D = l: every later d_j = l/u_j is an odd
        divisor of l in [dmin, l/u], and their squares sum to exactly
        H = (Q - g*s)/2g.  Every d_j is odd, so d_j^2 = 1 (mod 8) and
        H = rem (mod 8).  Picks each nonincreasing run of rem of them,
        a divisor and its count at a time, largest divisor first, and passes
        `emit` each whole row: the path's dims l/u_j, then the picked ones.
        It runs at Dmax // l < 3, where `kept(l)` is l's odd divisors, and
        reads each dim from `l_dims[l]`, the dims l // v of `kept(l)`."""
        g = self.g
        H, odd = divmod(Q - g * self.s, 2 * g)
        if odd or (H - rem) % 8 or H < rem * self.dmin2:
            return
        vs = self.kept(l)
        ds = self.l_dims.get(l)
        if ds is None:
            ds = self.l_dims[l] = [l // v for v in vs]
        first = bisect_left(vs, u)
        last = bisect_right(vs, l // self.dmin) - 1
        if first > last or not rem * ds[last] ** 2 <= H <= rem * ds[first] ** 2:
            return
        low2 = ds[last] ** 2
        tails = []
        # a loop over an explicit stack: a nested function that called itself
        # would leave a reference cycle, holding `tails`, at every close
        stack = [(first, rem, H, ())]
        while stack:
            # need*low2 <= budget <= need*ds[i]^2
            i, need, budget, dims = stack.pop()
            d = ds[i]
            if i == last:
                # budget == need*d^2: the last divisor fills every level
                tails.append(dims + (d,) * need)
                continue
            d2 = d * d
            next2 = ds[i + 1] ** 2
            for take in range(min(need, budget // d2), -1, -1):
                b, n = budget - take * d2, need - take
                if b > n * next2:
                    break
                if b < n * low2:
                    continue
                if n:
                    stack.append((i + 1, n, b, dims + (d,) * take))
                else:
                    tails.append(dims + (d,) * take)
        if tails:
            # most closes pick nothing.  The path's dims come from `ds` too:
            # each path value divides l and passed mi_coprime where it was
            # chosen (`m1_candidates`, or `kept` in bounded `children`)
            prefix = tuple(ds[bisect_left(vs, v)] for v in path)
            for tail in tails:
                self.emit(l, (), prefix + tail)

    def children(self, Q: int, l: int, u: int, rem: int):
        """Continuations (u', Q', l') of state (Q, l) at u with rem levels
        left: each odd u' >= u in ascending order with Q' > 0, and with
        fpdim_bound set, only those of `kept`."""
        g2, cop, w = 2 * self.g, self.cop, self.w
        gl2 = self.g * l * l
        # every level still to come needs Q*u'^2 <= (s/dmin^2 + 2*rem)*g*l^2
        top = isqrt((self.s + 2 * rem * self.dmin2) * gl2 // (self.dmin2 * Q))
        # Q' > 0 exactly when Q*u'^2 > 2g*l^2: the least such odd u' >= u, as in `final_node`
        first = u if Q * u * u > 2 * gl2 else (isqrt(2 * gl2 // Q) + 1) | 1
        if self.Dmax is not None:
            # D is a multiple of lcm(path, u') = l*r: only the u' of `kept` reach a row
            kept = self.kept(l)
            ups = kept[bisect_left(kept, first):bisect_right(kept, top)]
        elif cop:
            # mi_coprime constrains the quotient w*u'^2, not u' alone (bounded: in `kept`)
            ups = [v for v in range(first, top + 1, 2) if w * v * v % cop]
        else:
            ups = range(first, top + 1, 2)
        for up in ups:
            h = gcd(l, up)
            r = up // h
            m = l // h
            yield up, Q * r * r - g2 * m * m, l * r

    def kept(self, l: int) -> list[int]:
        """The odd u' whose lcm(l, u') = l*r has r <= Dmax // l, less those
        mi_coprime rules out, ascending, memoized per l: u' = h*r with h | l
        (by trial division up to isqrt(l)), r odd and gcd(l/h, r) = 1, one
        form per u'.  At Dmax // l < 3, where `final_pick` reads it, that is
        r = 1: the odd divisors of l."""
        got = self.l_kept.get(l)
        if got is None:
            cap, w, cop = self.Dmax // l, self.w, self.cop
            hs = {x for d in range(1, isqrt(l) + 1, 2) if l % d == 0 for x in (d, l // d)}
            ups = [h * r for h in hs for r in range(1, cap + 1, 2) if gcd(l // h, r) == 1]
            got = self.l_kept[l] = sorted(v for v in ups if not (cop and w * v * v % cop == 0))
        return got

    def search(self, Q0: int, u1: int) -> None:
        k = self.k
        L = self.L
        g = self.g
        if k == L:
            # u_1 at every level, each later one taking 2g from Q
            self.final_chain(Q0 - 2 * g * (k - 1), u1, (u1,) * k)
            return
        Dmax = self.Dmax
        if Dmax is not None:
            D2 = Dmax * Dmax
            dmin2 = self.dmin2
        stack = [(Q0, u1, (u1,), 1)]
        while stack:
            Q, l, path, run = stack.pop()
            u = path[-1]
            rem = k - len(path)
            # Q*e^2 >= g*(s + 2*rem*dmin^2) with e = D/l, as every d_j >= dmin
            if Dmax is not None and g * (self.s + 2 * rem * dmin2) * l * l > Q * D2:
                continue
            if run < L and rem == L:
                # after a u' > u no fresh run fits, unless u' fills all L levels
                self.final_node(path[:-1], ((u, Q, l),), L)
                # otherwise the run grows to L; each level takes 2g*(l/u)^2 from Q
                need = L - run
                Q -= 2 * g * need * (l // u) ** 2
                if Q <= 0:
                    continue
                path, run, rem = path + (u,) * need, L, rem - need
            if Dmax is not None and Dmax < 3 * l:
                # D is an odd multiple of l, so D = l
                self.final_pick(Q, l, u, path, rem)
            elif rem == 1:
                self.final_node(path[:-1], ((u, Q, l),), 1)
            elif rem == 2:
                # run == L here, so every child closes at rem = 1 as it is
                self.final_node(path, self.children(Q, l, u, 2), 1)
            else:
                for up, Qn, ln in self.children(Q, l, u, rem):
                    nrun = run if run == L else run + 1 if up == u else 1
                    stack.append((Qn, ln, path + (up,), nrun))


def _search_branch(args) -> list[DimSolution]:
    """All solutions of one m1 branch."""
    params, m1 = args
    Q0 = m1 - 2 * params.group_order
    if Q0 <= 0:
        return []
    u1, w = squarefree_split(m1)
    eng = _Engine(params, w)
    eng.search(Q0, u1)
    return eng.out


def enumerate_solutions(params: SearchParams, jobs: int = 1) -> list[DimSolution]:
    """Complete, duplicate-free, canonically ordered list of solutions.

    Every row passes `validate_solution`.  `canonical` puts equal rows next
    to each other, so the duplicate check compares neighbours and holds no
    set of the rows.  The cyclic collector is paused meanwhile
    (`_collector_paused`): the engine makes no reference cycle."""
    if jobs < 1:
        raise ValueError("jobs must be positive")
    m1s = m1_candidates(params)
    with _collector_paused():
        if jobs > 1 and len(m1s) > 1:
            from multiprocessing import Pool  # here, so serial runs skip its import
            with Pool(min(jobs, len(m1s))) as pool:
                chunks = pool.map(_search_branch, [(params, m1) for m1 in m1s], chunksize=1)
        else:
            # one branch's rows at a time, each list dropped once copied
            chunks = map(_search_branch, [(params, m1) for m1 in m1s])
        out = canonical(sol for chunk in chunks for sol in chunk)
        for sol in out:
            validate_solution(sol, params)
        require(not any(a.fpdim == b.fpdim and a.dims == b.dims
                        for a, b in zip(out, islice(out, 1, None))), "duplicate solutions")
    return out
