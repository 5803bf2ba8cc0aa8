"""
Exact integer arithmetic primitives: integer square roots, squarefree
decomposition, factorization, prime-power tests.

No floating point is used anywhere; all results are exact.
"""

from __future__ import annotations

import math


class InvariantError(AssertionError):
    """An invariant of a search, a solution or a value object failed.

    Raised explicitly, so the checks also run under `python -O`.
    """


def require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


def isqrt_exact(n: int) -> tuple[int, bool]:
    """Return (floor(sqrt(n)), whether n is a perfect square)."""
    if n < 0:
        raise ValueError("negative input")
    r = math.isqrt(n)
    return r, r * r == n


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer by trial division into (prime, exponent)
    pairs, primes ascending."""
    if n < 1:
        raise ValueError("input must be positive")
    factors = []
    e = (n & -n).bit_length() - 1  # the exponent of 2
    if e:
        factors.append((2, e))
        n >>= e
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = u**2 * w with w squarefree and u maximal; return (u, w)."""
    if n < 1:
        raise ValueError("input must be positive")
    u = 1
    w = 1
    for p, e in factorize(n):
        u *= p ** (e // 2)
        if e % 2:
            w *= p
    return u, w


def is_prime_power(n: int) -> bool:
    """True iff n = p**k for a single prime p with k >= 1 (1 is not)."""
    if n < 1:
        raise ValueError("input must be positive")
    return len(factorize(n)) == 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == ((n, 1),)
