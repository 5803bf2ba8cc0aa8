"""
Structural and number-theoretic discard tests for candidate dimension
arrays, applied per solution or per (solution, grading case) pair.

All dimension multisets below follow the dual-pair convention of
DimSolution: one entry per dual pair, so the full simple-object multiset
doubles each entry and adds the invertibles as dim 1.
"""

from __future__ import annotations

import enum
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


class Verdict(enum.Enum):
    PASS = "PASS"
    DISCARD = "DISCARD"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class FilterVerdict:
    verdict: Verdict
    reason: str
    citation: str
    detail: str = ""

    def __post_init__(self):
        if self.verdict is Verdict.DISCARD:
            require(bool(self.reason and self.citation), "a discard names its reason and citation")

    @property
    def discard(self) -> bool:
        return self.verdict is Verdict.DISCARD


@dataclass(frozen=True)
class DeequivProfile:
    """Outcome of quotienting a layer by a cyclic group of odd prime order p
    under one fixed/non-fixed assignment of its simple objects.

    Fixed objects of dim d split into p objects of dim d/p; non-fixed
    objects form orbits of size p, each orbit contributing one object of
    dim d.  Multisets count both duals (they are NOT dual-pair lists).
    """

    prime: int
    fixed_dims: tuple[int, ...]
    nonfixed_orbit_dims: tuple[int, ...]
    invertible_count: int
    deequiv_fpdim: int
    result_dims: tuple[int, ...]
    result_rank: int

    def __post_init__(self):
        p = self.prime
        require(all(d % p == 0 for d in self.fixed_dims), "fixed dims divisible by p")
        require(len(self.nonfixed_orbit_dims) % 2 == 0, "orbit dims come in dual pairs")
        require(self.invertible_count == 1 + p * sum(1 for d in self.fixed_dims if d == p),
                "invertible count of the quotient")


def full_multiset(dims, invertibles: int) -> list[int]:
    out = [1] * invertibles
    for d in dims:
        out.extend((d, d))
    return sorted(out, reverse=True)


def fixed_dim_multiplicity_filter(solution, p: int) -> FilterVerdict:
    """Each dim value not divisible by p must occur a multiple of 2p times
    in the full simple-object multiset."""
    counts = Counter(d for d in solution.dims for _ in range(2))
    for value, mult in sorted(counts.items()):
        if mult % (2 * p) != 0 and value % p != 0:
            return FilterVerdict(
                Verdict.DISCARD,
                "fixed-dim-multiplicity",
                CITE_FIXED_DIM,
                detail=f"dim {value} occurs {mult} times; not 0 mod {2 * p} and {p} does not divide it",
            )
    return FilterVerdict(Verdict.PASS, "fixed-dim-multiplicity", CITE_FIXED_DIM)


def deequiv_profiles(adjoint_dims, p: int, adjoint_fpdim: int) -> list[DeequivProfile]:
    """All fixed/non-fixed assignments of the adjoint layer's dual pairs.

    `adjoint_dims` is the dual-pair list of the layer's non-invertible
    dims.  Per dim value, the non-fixed object count must be a multiple of
    2p, i.e. the non-fixed pair count a multiple of p; values not
    divisible by p are forced entirely non-fixed.
    """
    if adjoint_fpdim % p != 0:
        raise ValueError("p must divide the layer fpdim")
    counts = Counter(adjoint_dims)
    per_value_choices = []
    for value, pairs in sorted(counts.items()):
        if value % p != 0:
            if (2 * pairs) % (2 * p) != 0:
                return []  # no consistent assignment at all
            choices = [(value, pairs)]
        else:
            choices = [(value, nf) for nf in range(0, pairs + 1, p)]
        per_value_choices.append(choices)

    profiles = []
    for combo in itertools.product(*per_value_choices):
        fixed = []
        orbits = []
        for value, nf in combo:
            pairs = counts[value]
            fixed.extend([value] * (2 * (pairs - nf)))
            orbits.extend([value] * (2 * nf // p))
        invertible_count = 1 + p * sum(1 for d in fixed if d == p)
        result = sorted(
            [d // p for d in fixed for _ in range(p) if d // p > 1] + orbits, reverse=True
        )
        result_rank = invertible_count + len(result)
        profiles.append(
            DeequivProfile(
                prime=p,
                fixed_dims=tuple(sorted(fixed, reverse=True)),
                nonfixed_orbit_dims=tuple(sorted(orbits, reverse=True)),
                invertible_count=invertible_count,
                deequiv_fpdim=adjoint_fpdim // p,
                result_dims=tuple(result),
                result_rank=result_rank,
            )
        )
    return profiles


def deequiv_consistency_filter(profile: DeequivProfile) -> FilterVerdict:
    """The quotient's invertible count must divide its fpdim, and every
    result dim d must have fpdim/d^2 a positive integer."""
    if profile.deequiv_fpdim % profile.invertible_count != 0:
        return FilterVerdict(
            Verdict.DISCARD,
            "deequiv-invertible-count",
            CITE_DEEQUIV,
            detail=f"{profile.invertible_count} does not divide {profile.deequiv_fpdim}",
        )
    for d in set(profile.result_dims):
        if d > 1 and profile.deequiv_fpdim % (d * d) != 0:
            return FilterVerdict(
                Verdict.DISCARD,
                "deequiv-dim-square",
                CITE_DEEQUIV,
                detail=f"result dim {d}: {d}^2 does not divide {profile.deequiv_fpdim}",
            )
    return FilterVerdict(Verdict.PASS, "deequiv", CITE_DEEQUIV)


def deequiv_solution_filter(adjoint_dims, p: int, adjoint_fpdim: int) -> FilterVerdict:
    """A solution is discarded by the quotient argument iff every profile is."""
    profiles = deequiv_profiles(adjoint_dims, p, adjoint_fpdim)
    if any(not deequiv_consistency_filter(pr).discard for pr in profiles):
        return FilterVerdict(Verdict.PASS, "deequiv", CITE_DEEQUIV)
    return FilterVerdict(
        Verdict.DISCARD, "deequiv", CITE_DEEQUIV, detail="every fixed/non-fixed assignment fails"
    )


def outside_dim_uniformity(solution, case) -> FilterVerdict:
    """With prime invertible count p and all non-adjoint components of
    rank p, the p(p-1) objects outside the adjoint part share one dim
    d with fpdim = p^2 * d^2."""
    p = case.invertibles
    odd = case.odd_multiplicity_ranks()
    non_adjoint_all_p = len(odd) == 1 and all(
        r == p for r in case.component_ranks if r != odd[0]
    ) and case.rank_multiplicities()[p] >= p - 1
    if not is_prime(p) or not non_adjoint_all_p:
        return FilterVerdict(Verdict.NOT_APPLICABLE, "outside-dim-uniformity", CITE_UNIFORMITY)
    q, r = divmod(solution.fpdim, p * p)
    if r != 0:
        return FilterVerdict(
            Verdict.DISCARD, "outside-dim-uniformity", CITE_UNIFORMITY,
            detail=f"{p}^2 does not divide fpdim",
        )
    d, square = isqrt_exact(q)
    if not square:
        return FilterVerdict(
            Verdict.DISCARD, "outside-dim-uniformity", CITE_UNIFORMITY,
            detail=f"fpdim/{p}^2 = {q} is not a perfect square",
        )
    have = sum(2 for x in solution.dims if x == d)
    if have < p * (p - 1):
        return FilterVerdict(
            Verdict.DISCARD, "outside-dim-uniformity", CITE_UNIFORMITY,
            detail=f"need {p * (p - 1)} objects of dim {d}, found {have}",
        )
    return FilterVerdict(Verdict.PASS, "outside-dim-uniformity", CITE_UNIFORMITY)


def component_packing_feasible(solution, case) -> FilterVerdict:
    """All grading components have equal fpdim; check the full simple-object
    multiset can be partitioned into groups matching the case's rank
    multiset with equal squared-dim sums."""
    n_bins = case.invertibles
    if solution.fpdim % n_bins != 0:
        return FilterVerdict(
            Verdict.DISCARD, "component-packing", CITE_PACKING,
            detail="invertible count does not divide fpdim",
        )
    target = solution.fpdim // n_bins
    objects = full_multiset(solution.dims, solution.invertibles)
    sizes = sorted(case.component_ranks, reverse=True)
    if _pack(tuple(objects), tuple(sizes), target):
        return FilterVerdict(Verdict.PASS, "component-packing", CITE_PACKING)
    return FilterVerdict(
        Verdict.DISCARD, "component-packing", CITE_PACKING,
        detail=f"no partition into components of ranks {sizes} with fpdim {target} each",
    )


def _pack(objects: tuple[int, ...], sizes: tuple[int, ...], target: int) -> bool:
    if not sizes:
        return not objects
    counts = tuple(sorted(Counter(objects).items(), reverse=True))
    return _pack_bins(counts, sizes, 0, target, None, {})


def _fills(counts, idx, size, budget, cap):
    """Yield multisets (as per-value take tuples) of `size` objects from
    counts[idx:] with squared sum exactly `budget`; if `cap` is given,
    only tuples lexicographically <= cap (symmetry breaking between
    equal-size bins)."""
    if size == 0 and budget == 0:
        yield (0,) * (len(counts) - idx)
        return
    if idx == len(counts) or size == 0 or budget < 0:
        return
    value, avail = counts[idx]
    max_take = min(avail, size, budget // (value * value))
    if cap is not None:
        max_take = min(max_take, cap[idx])
    for take in range(max_take, -1, -1):
        sub_cap = cap if cap is not None and take == cap[idx] else None
        for rest in _fills(counts, idx + 1, size - take, budget - take * value * value, sub_cap):
            yield (take,) + rest


def _pack_bins(counts, sizes, bin_idx, target, prev_fill, memo):
    if bin_idx == len(sizes):
        return all(avail == 0 for _, avail in counts)
    key = (counts, bin_idx, prev_fill if bin_idx and sizes[bin_idx - 1] == sizes[bin_idx] else None)
    if key in memo:
        return memo[key]
    size = sizes[bin_idx]
    cap = prev_fill if bin_idx > 0 and sizes[bin_idx - 1] == size else None
    ok = False
    for fill in _fills(counts, 0, size, target, cap):
        new_counts = tuple((v, a - t) for (v, a), t in zip(counts, fill))
        if _pack_bins(new_counts, sizes, bin_idx + 1, target, fill, memo):
            ok = True
            break
    memo[key] = ok
    return ok


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
    if reachable[cap]:
        return FilterVerdict(Verdict.PASS, "dual-product", CITE_DUAL_PRODUCT)
    return FilterVerdict(
        Verdict.DISCARD, "dual-product", CITE_DUAL_PRODUCT,
        detail=f"{d}^2 = 1 + 2*sum over dims {coins} has no solution",
    )


def forced_pointed(fpdim: int) -> bool:
    """True iff fpdim = m * p^k with m squarefree, p prime not dividing m,
    and k <= 4 (k = 0, i.e. squarefree fpdim, included)."""
    if fpdim % 2 == 0:
        raise ValueError("fpdim must be odd")
    heavy = [e for _, e in factorize(fpdim).factors if e >= 2]
    return len(heavy) <= 1 and all(e <= 4 for e in heavy)


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
    fac = factorize(solution.fpdim).factors
    if len(fac) == 2:
        (p, ep), (q, eq) = fac
        if ep == 2 and eq <= 4:
            candidates.append((p, q, eq))
        if eq == 2 and ep <= 4:
            candidates.append((q, p, ep))
    if any(semidirect_condition(pp, qq, a) for pp, qq, a in candidates):
        return FilterVerdict(Verdict.PASS, "semidirect-model", CITE_SEMIDIRECT)
    return None
