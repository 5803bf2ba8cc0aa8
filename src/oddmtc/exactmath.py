"""
Exact integer arithmetic primitives: integer square roots, squarefree
decomposition, factorization, prime-power tests.

No floating point is used anywhere; all results are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvariantError(AssertionError):
    """An invariant of a search, a solution or a value object failed.

    Raised explicitly, so the checks also run under `python -O`.
    """


def require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as a sorted tuple of (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.factors]
        require(primes == sorted(primes) and len(set(primes)) == len(primes),
                "primes strictly increasing")
        require(all(e >= 1 for _, e in self.factors), "exponents positive")


def isqrt_exact(n: int) -> tuple[int, bool]:
    """Return (floor(sqrt(n)), whether n is a perfect square)."""
    if n < 0:
        raise ValueError("negative input")
    r = math.isqrt(n)
    return r, r * r == n


def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division."""
    if n < 1:
        raise ValueError("input must be positive")
    factors = []
    for p in _trial_primes(n):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        factors.append((n, 1))
    return Factorization(tuple(factors))


def _trial_primes(n: int):
    yield 2
    yield 3
    p = 5
    while p * p <= n:
        yield p
        yield p + 2
        p += 6
    # One more candidate so the p*p > n break in factorize fires.
    yield p


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = u**2 * w with w squarefree and u maximal; return (u, w)."""
    if n < 1:
        raise ValueError("input must be positive")
    u = 1
    w = 1
    for p, e in factorize(n).factors:
        u *= p ** (e // 2)
        if e % 2:
            w *= p
    return u, w


def is_prime_power(n: int) -> bool:
    """True iff n = p**k for a single prime p with k >= 1 (1 is not)."""
    if n < 1:
        raise ValueError("input must be positive")
    return len(factorize(n).factors) == 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = factorize(n).factors
    return len(f) == 1 and f[0][1] == 1
