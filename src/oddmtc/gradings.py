"""
Universal-grading case enumeration and combinatorial discard rules.

A grading of a rank-n category with s invertible objects splits the
simples into s components whose ranks are odd, sum to n, and are pairwise
congruent mod 8.  The filters below encode counting arguments that rule
out rank multisets outright.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exactmath import factorize, is_prime, require
from .filters import FilterVerdict, Verdict


@dataclass(frozen=True)
class GradingCase:
    component_ranks: tuple[int, ...]  # sorted descending
    rank: int
    invertibles: int

    def __post_init__(self):
        ranks = self.component_ranks
        require(len(ranks) == self.invertibles, "one component per invertible")
        require(sum(ranks) == self.rank, "component ranks sum to the rank")
        require(list(ranks) == sorted(ranks, reverse=True), "component ranks descending")
        require(len({r % 8 for r in ranks}) == 1, "component ranks congruent mod 8")

    def rank_multiplicities(self) -> Counter[int]:
        return Counter(self.component_ranks)

    def odd_multiplicity_ranks(self) -> list[int]:
        return [r for r, c in self.rank_multiplicities().items() if c % 2 == 1]


def invertible_count_candidates(rank: int) -> list[int]:
    """All odd s <= rank with rank = s*m + 8j for some m >= 1, j >= 0."""
    if rank < 1 or rank % 2 == 0:
        raise ValueError("rank must be odd and positive")
    out = []
    for s in range(1, rank + 1, 2):
        if any((rank - 8 * j) % s == 0 for j in range(0, (rank - s) // 8 + 1)):
            out.append(s)
    return out


def enumerate_cases(rank: int, invertibles: int) -> list[GradingCase]:
    """All component-rank multisets for the given rank and invertible count."""
    if invertibles not in invertible_count_candidates(rank):
        raise ValueError("invertibles is not an admissible count for this rank")
    s = invertibles
    cases = []
    # Components are r + 8*a_i with a_i >= 0 and common residue r (odd).
    for r in range(1, 8, 2):
        if (s * r - rank) % 8 != 0 or s * r > rank:
            continue
        total = (rank - s * r) // 8
        for extra in _partitions_at_most(total, s):
            ranks = tuple(sorted((r + 8 * a for a in extra + (0,) * (s - len(extra))), reverse=True))
            cases.append(GradingCase(ranks, rank, s))
    return sorted(cases, key=lambda c: c.component_ranks, reverse=True)


def _partitions_at_most(n: int, parts: int, lo: int = 1) -> list[tuple[int, ...]]:
    """Partitions of n into at most `parts` parts, each >= lo, descending."""
    if n == 0:
        return [()]
    if parts == 0:
        return []
    out = []
    for first in range(n, lo - 1, -1):
        for rest in _partitions_at_most(n - first, parts - 1, lo):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def filter_min_three_components(case: GradingCase) -> FilterVerdict:
    """A non-trivial pointed adjoint part forces, for some prime p dividing
    the invertible count, at least three components of rank >= p."""
    if case.invertibles == 1:
        return FilterVerdict(Verdict.NOT_APPLICABLE, "min-three-components", CITE_MIN_THREE)
    primes = [p for p, _ in factorize(case.invertibles).factors]
    for p in primes:
        if sum(1 for r in case.component_ranks if r >= p) >= 3:
            return FilterVerdict(Verdict.PASS, "min-three-components", CITE_MIN_THREE)
    return FilterVerdict(
        Verdict.DISCARD,
        "min-three-components",
        CITE_MIN_THREE,
        detail="no prime divisor of the invertible count has 3 components of rank >= p",
    )


def filter_divisibility(case: GradingCase) -> FilterVerdict:
    """With a prime invertible count p, at most one component may have rank
    not divisible by p, and that component must be the adjoint one (the
    unique odd-multiplicity rank)."""
    p = case.invertibles
    if not is_prime(p):
        return FilterVerdict(Verdict.NOT_APPLICABLE, "component-divisibility", CITE_DIVISIBILITY)
    nondiv = [r for r in case.component_ranks if r % p != 0]
    if len(nondiv) > 1:
        return FilterVerdict(
            Verdict.DISCARD,
            "component-divisibility",
            CITE_DIVISIBILITY,
            detail=f"{len(nondiv)} components have rank not divisible by {p}",
        )
    if len(nondiv) == 1:
        odd = case.odd_multiplicity_ranks()
        if len(odd) != 1 or nondiv[0] != odd[0]:
            return FilterVerdict(
                Verdict.DISCARD,
                "component-divisibility",
                CITE_DIVISIBILITY,
                detail="the non-divisible component cannot be the adjoint component",
            )
    return FilterVerdict(Verdict.PASS, "component-divisibility", CITE_DIVISIBILITY)


def filter_odd_multiplicity(case: GradingCase) -> FilterVerdict:
    """Exactly one rank value occurs an odd number of times (the adjoint
    component's rank), and it cannot be 1."""
    odd = case.odd_multiplicity_ranks()
    if len(odd) != 1:
        return FilterVerdict(
            Verdict.DISCARD,
            "odd-multiplicity",
            CITE_ODD_MULT,
            detail=f"{len(odd)} rank values occur an odd number of times",
        )
    if odd[0] == 1:
        return FilterVerdict(
            Verdict.DISCARD,
            "odd-multiplicity",
            CITE_ODD_MULT,
            detail="adjoint component would be rank 1",
        )
    return FilterVerdict(Verdict.PASS, "odd-multiplicity", CITE_ODD_MULT)


def filter_adjoint_containment(case: GradingCase) -> FilterVerdict:
    """Every invertible lies in the adjoint component, so that component's
    rank must be at least the invertible count."""
    odd = case.odd_multiplicity_ranks()
    adjoint_rank = odd[0] if len(odd) == 1 else max(case.component_ranks)
    if adjoint_rank < case.invertibles:
        return FilterVerdict(
            Verdict.DISCARD,
            "adjoint-containment",
            CITE_ADJOINT_CONTAINS,
            detail=f"adjoint rank {adjoint_rank} < {case.invertibles} invertibles",
        )
    return FilterVerdict(Verdict.PASS, "adjoint-containment", CITE_ADJOINT_CONTAINS)


#: Every grading-case discard rule, in report order.
GRADING_FILTERS = (
    filter_min_three_components,
    filter_divisibility,
    filter_odd_multiplicity,
    filter_adjoint_containment,
)

CITE_MIN_THREE = "rule:pointed-part-needs-three-large-components"
CITE_DIVISIBILITY = "rule:non-adjoint-component-ranks-divisible-by-p"
CITE_ODD_MULT = "rule:unique-odd-multiplicity-component-rank"
CITE_ADJOINT_CONTAINS = "rule:adjoint-component-contains-all-invertibles"
