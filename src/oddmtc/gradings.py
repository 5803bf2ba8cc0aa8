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
from .filters import FilterVerdict

CITE_MIN_THREE = "rule:pointed-part-needs-three-large-components"
CITE_DIVISIBILITY = "rule:non-adjoint-component-ranks-divisible-by-p"
CITE_ODD_MULT = "rule:unique-odd-multiplicity-component-rank"
CITE_ADJOINT_CONTAINS = "rule:adjoint-component-contains-all-invertibles"


@dataclass(frozen=True)
class GradingCase:
    component_ranks: tuple[int, ...]  # sorted descending

    def __post_init__(self):
        ranks = self.component_ranks
        require(list(ranks) == sorted(ranks, reverse=True), "component ranks descending")
        require(len({r % 8 for r in ranks}) == 1, "component ranks congruent mod 8")

    @property
    def invertibles(self) -> int:
        """One component per invertible object."""
        return len(self.component_ranks)

    def odd_multiplicity_ranks(self) -> list[int]:
        return [r for r, c in Counter(self.component_ranks).items() if c % 2 == 1]

    @property
    def adjoint_rank(self) -> int | None:
        """The adjoint component's rank: the unique rank of odd multiplicity,
        None when there is not exactly one."""
        odd = self.odd_multiplicity_ranks()
        return odd[0] if len(odd) == 1 else None


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
            cases.append(GradingCase(ranks))
    return sorted(cases, key=lambda c: c.component_ranks, reverse=True)


def _partitions_at_most(n: int, parts: int) -> list[tuple[int, ...]]:
    """Partitions of n into at most `parts` positive parts, descending."""
    if n == 0:
        return [()]
    if parts == 0:
        return []
    return [(first,) + rest for first in range(n, 0, -1)
            for rest in _partitions_at_most(n - first, parts - 1)
            if not rest or rest[0] <= first]


def filter_min_three_components(case: GradingCase) -> FilterVerdict | None:
    """A non-trivial pointed adjoint part forces, for some prime p dividing
    the invertible count, at least three components of rank >= p.  None (no
    verdict) with one invertible."""
    if case.invertibles == 1:
        return None
    primes = [p for p, _ in factorize(case.invertibles)]
    found = any(sum(1 for r in case.component_ranks if r >= p) >= 3 for p in primes)
    detail = None if found else (
        "no prime divisor of the invertible count has 3 components of rank >= p")
    return FilterVerdict("min-three-components", CITE_MIN_THREE, detail)


def filter_divisibility(case: GradingCase) -> FilterVerdict | None:
    """With a prime invertible count p, at most one component may have rank
    not divisible by p, and that component must be the adjoint one (the
    unique odd-multiplicity rank).  None (no verdict) for a non-prime count."""
    p = case.invertibles
    if not is_prime(p):
        return None
    nondiv = [r for r in case.component_ranks if r % p != 0]
    if len(nondiv) > 1:
        detail = f"{len(nondiv)} components have rank not divisible by {p}"
    elif nondiv and nondiv[0] != case.adjoint_rank:
        detail = "the non-divisible component cannot be the adjoint component"
    else:
        detail = None
    return FilterVerdict("component-divisibility", CITE_DIVISIBILITY, detail)


def filter_odd_multiplicity(case: GradingCase) -> FilterVerdict:
    """Exactly one rank value occurs an odd number of times (the adjoint
    component's rank), and it cannot be 1."""
    odd = case.odd_multiplicity_ranks()
    if len(odd) != 1:
        detail = f"{len(odd)} rank values occur an odd number of times"
    elif odd[0] == 1:
        detail = "adjoint component would be rank 1"
    else:
        detail = None
    return FilterVerdict("odd-multiplicity", CITE_ODD_MULT, detail)


def filter_adjoint_containment(case: GradingCase) -> FilterVerdict:
    """Every invertible lies in the adjoint component, so that component's
    rank must be at least the invertible count."""
    adjoint_rank = case.adjoint_rank or max(case.component_ranks)
    detail = None
    if adjoint_rank < case.invertibles:
        detail = f"adjoint rank {adjoint_rank} < {case.invertibles} invertibles"
    return FilterVerdict("adjoint-containment", CITE_ADJOINT_CONTAINS, detail)


#: Every grading-case discard rule, in report order.  A rule returns None
#: when it does not apply to the case.
GRADING_FILTERS = (
    filter_min_three_components,
    filter_divisibility,
    filter_odd_multiplicity,
    filter_adjoint_containment,
)
