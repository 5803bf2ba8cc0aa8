"""
Structural and number-theoretic discard tests for candidate dimension
arrays, applied per solution or per (solution, grading case) pair.

All dimension multisets below follow the dual-pair convention of
DimSolution: one entry per dual pair, so the full simple-object multiset
doubles each entry and adds the invertibles as dim 1.

The p-batch rule (non-fixed dual pairs of a value come in batches of p)
lives in `p_batch_violation` alone; `fixed_dim_multiplicity_filter`, the
quotient rule `deequiv_solution_filter` and the search's min_run predicate
all read it from there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections import Counter

from .exactmath import factorize, is_prime, isqrt_exact, require

CITE_FIXED_DIM = "rule:non-fixed-dims-come-in-2p-batches"
CITE_DEEQUIV = "rule:quotient-category-divisibility"
CITE_UNIFORMITY = "rule:equal-dims-outside-adjoint"
CITE_PACKING = "rule:equal-component-fpdim-packing"
CITE_DUAL_PRODUCT = "rule:dual-product-dimension-equation"
CITE_FORCED_POINTED = "rule:squarefree-times-small-prime-power-is-pointed"
CITE_SEMIDIRECT = "rule:semidirect-product-divisibility"


@dataclass(frozen=True)
class FilterVerdict:
    """A rule's verdict, named by the rule's reason and citation.  A discard
    carries what failed as its detail; a pass has none."""
    reason: str
    citation: str
    detail: str | None = None

    def __post_init__(self):
        require(bool(self.reason and self.citation), "a verdict names its reason and citation")
        require(self.detail is None or bool(self.detail), "a discard states its detail")

    @property
    def discard(self) -> bool:
        return self.detail is not None


def p_batch_violation(dims, p: int) -> tuple[int, int] | None:
    """The p-batch rule: under an order-p symmetry, the non-fixed dual pairs
    of each dim value come in batches of p, and a fixed pair's dim is
    divisible by p.  So every pair of a value p does not divide is
    non-fixed, and their count is a multiple of p.

    Returns the smallest value of the dual-pair list `dims` that p does not
    divide and whose pair count is not a multiple of p, with that count;
    None when there is no such value.
    """
    return min(((v, c) for v, c in Counter(dims).items() if v % p and c % p), default=None)


def fixed_dim_multiplicity_filter(solution, p: int) -> FilterVerdict:
    """Each dim value not divisible by p must occur a multiple of 2p times
    in the full simple-object multiset (`p_batch_violation`)."""
    bad = p_batch_violation(solution.dims, p)
    detail = None if bad is None else (
        f"dim {bad[0]} occurs {2 * bad[1]} times; not 0 mod {2 * p} and {p} does not divide it")
    return FilterVerdict("fixed-dim-multiplicity", CITE_FIXED_DIM, detail)


def deequiv_solution_filter(adjoint_dims, p: int, adjoint_fpdim: int) -> FilterVerdict:
    """Quotient of a layer by a cyclic group of odd prime order p.

    `adjoint_dims` is the dual-pair list of the layer's non-invertible dims.
    An assignment picks the non-fixed pair count of each value: a multiple
    of p when p divides the value, all pairs otherwise (`p_batch_violation`).
    A fixed object of dim v splits into p objects of dim v/p, and each
    orbit of p non-fixed objects of dim v gives one object of dim v.  So the
    quotient, of fpdim q = adjoint_fpdim/p, has 1 + 2p*(fixed pairs of dim p)
    invertibles, which must divide q, and d^2 must divide q for every result
    dim d: v/p for each value with a fixed pair (1 when v = p), and v for
    each value with a non-fixed pair.  The solution is discarded iff no
    assignment passes.
    """
    if adjoint_fpdim % p != 0:
        raise ValueError("p must divide the layer fpdim")
    q = adjoint_fpdim // p
    counts = Counter(adjoint_dims).items()
    detail = "every fixed/non-fixed assignment fails"
    if p_batch_violation(adjoint_dims, p) is None:
        choices = [range(0, pairs + 1, p) if v % p == 0 else (pairs,) for v, pairs in counts]
        for nonfixed in itertools.product(*choices):
            chosen = list(zip(counts, nonfixed))
            fixed_p = sum(pairs - nf for (v, pairs), nf in chosen if v == p)
            dims = [v // p for (v, pairs), nf in chosen if nf < pairs]
            dims += [v for (v, _), nf in chosen if nf]
            if q % (1 + 2 * p * fixed_p) == 0 and all(q % (d * d) == 0 for d in dims):
                detail = None
                break
    return FilterVerdict("deequiv", CITE_DEEQUIV, detail)


def outside_dim_uniformity(solution, case) -> FilterVerdict | None:
    """With prime invertible count p and all non-adjoint components of
    rank p, the p(p-1) objects outside the adjoint part share one dim
    d with fpdim = p^2 * d^2.  None (no verdict) for any other case."""
    p = case.invertibles
    adjoint = case.adjoint_rank
    non_adjoint_all_p = adjoint is not None and all(
        r == p for r in case.component_ranks if r != adjoint
    ) and case.component_ranks.count(p) >= p - 1
    if not is_prime(p) or not non_adjoint_all_p:
        return None
    q, r = divmod(solution.fpdim, p * p)
    d, square = isqrt_exact(q)
    have = sum(2 for x in solution.dims if x == d)
    if r:
        detail = f"{p}^2 does not divide fpdim"
    elif not square:
        detail = f"fpdim/{p}^2 = {q} is not a perfect square"
    elif have < p * (p - 1):
        detail = f"need {p * (p - 1)} objects of dim {d}, found {have}"
    else:
        detail = None
    return FilterVerdict("outside-dim-uniformity", CITE_UNIFORMITY, detail)


def component_packing_feasible(solution, case) -> FilterVerdict:
    """All grading components have equal fpdim; check the full simple-object
    multiset can be partitioned into groups matching the case's rank
    multiset with equal squared-dim sums."""
    target, r = divmod(solution.fpdim, case.invertibles)
    # two objects per dual pair, and the invertibles as dim 1
    pairs = Counter(solution.dims)
    objects = pairs + pairs + Counter({1: case.invertibles})
    sizes = case.component_ranks
    if r:
        detail = "invertible count does not divide fpdim"
    elif not _pack_bins(tuple(sorted(objects.items(), reverse=True)), sizes, 0, target, None):
        detail = f"no partition into components of ranks {list(sizes)} with fpdim {target} each"
    else:
        detail = None
    return FilterVerdict("component-packing", CITE_PACKING, detail)


def _fills(counts, idx, size, budget, cap):
    """Yield multisets (as per-value take tuples) of `size` objects from
    counts[idx:] with squared sum exactly `budget`; if `cap` is given,
    only tuples lexicographically <= cap (symmetry breaking between
    equal-size bins)."""
    if size == 0 and budget == 0:
        yield (0,) * (len(counts) - idx)
        return
    if idx == len(counts) or size == 0:
        return
    value, avail = counts[idx]
    max_take = min(avail, size, budget // (value * value))
    if cap is not None:
        max_take = min(max_take, cap[idx])
    for take in range(max_take, -1, -1):
        sub_cap = cap if cap is not None and take == cap[idx] else None
        for rest in _fills(counts, idx + 1, size - take, budget - take * value * value, sub_cap):
            yield (take,) + rest


def _pack_bins(counts, sizes, bin_idx, target, prev_fill):
    if bin_idx == len(sizes):
        return all(avail == 0 for _, avail in counts)
    size = sizes[bin_idx]
    cap = prev_fill if bin_idx > 0 and sizes[bin_idx - 1] == size else None
    for fill in _fills(counts, 0, size, target, cap):
        new_counts = tuple((v, a - t) for (v, a), t in zip(counts, fill))
        if _pack_bins(new_counts, sizes, bin_idx + 1, target, fill):
            return True
    return False


def dual_product_feasible(available_dims, d: int) -> FilterVerdict:
    """Whether d^2 = 1 + 2*sum(N_e * e) has a nonnegative solution over the
    dim values e <= (d^2-1)/2 appearing in `available_dims`."""
    cap = (d * d - 1) // 2
    coins = sorted({e for e in available_dims if e <= cap})
    reachable = bytearray(cap + 1)
    reachable[0] = 1
    for c in coins:
        for v in range(c, cap + 1):
            if reachable[v - c]:
                reachable[v] = 1
    detail = None if reachable[cap] else f"{d}^2 = 1 + 2*sum over dims {coins} has no solution"
    return FilterVerdict("dual-product", CITE_DUAL_PRODUCT, detail)


def dual_product_rule(solution, case) -> FilterVerdict | None:
    """`dual_product_feasible` for the smallest dim the invertible count does
    not divide; None (no verdict) when it divides every dim."""
    non_div = [d for d in solution.dims if d % case.invertibles]
    return dual_product_feasible(sorted(set(solution.dims)), min(non_div)) if non_div else None


def forced_pointed(fpdim: int) -> bool:
    """True iff fpdim = m * p^k with m squarefree, p prime not dividing m,
    and k <= 4 (k = 0, i.e. squarefree fpdim, included)."""
    if fpdim % 2 == 0:
        raise ValueError("fpdim must be odd")
    heavy = [e for _, e in factorize(fpdim) if e >= 2]
    return len(heavy) <= 1 and all(e <= 4 for e in heavy)


def forced_pointed_rule(solution, case=None) -> FilterVerdict | None:
    """Discard a solution whose fpdim is `forced_pointed`; None (no verdict)
    otherwise."""
    if not forced_pointed(solution.fpdim):
        return None
    return FilterVerdict("forced-pointed", CITE_FORCED_POINTED,
                         f"fpdim {solution.fpdim} forces a pointed category")


def semidirect_condition(p: int, q: int, a: int) -> bool:
    """Existence condition for the realizing family at fpdim p^2 * q^a."""
    if p == q or not is_prime(p) or not is_prime(q) or p == 2 or q == 2:
        raise ValueError("p and q must be distinct odd primes")
    if not 1 <= a <= 4:
        raise ValueError("a must be in [1, 4]")
    return (q - 1) % p == 0 or (p - 1) % q == 0


def semidirect_model(solution, case=None) -> FilterVerdict | None:
    """PASS when fpdim = p^2 * q^a (1 <= a <= 4) meets `semidirect_condition`
    for one of its two readings, so a group-theoretical model realizes the
    solution; None (no verdict) when fpdim has another shape or neither
    reading does."""
    candidates = []
    fac = factorize(solution.fpdim)
    if len(fac) == 2:
        (p, ep), (q, eq) = fac
        if ep == 2 and eq <= 4:
            candidates.append((p, q, eq))
        if eq == 2 and ep <= 4:
            candidates.append((q, p, ep))
    if any(semidirect_condition(pp, qq, a) for pp, qq, a in candidates):
        return FilterVerdict("semidirect-model", CITE_SEMIDIRECT)
    return None
