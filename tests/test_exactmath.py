import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from oddmtc.exactmath import (
    InvariantError,
    factorize,
    is_prime,
    is_prime_power,
    isqrt_exact,
    squarefree_split,
)


class TestIsqrtExact:
    def test_perfect_squares(self):
        for n in (0, 1, 4, 9, 225, 59241**2):
            root, exact = isqrt_exact(n)
            assert exact and root * root == n

    def test_non_squares(self):
        for n in (2, 3, 8, 15, 59241**2 - 1):
            root, exact = isqrt_exact(n)
            assert not exact
            assert root * root <= n < (root + 1) * (root + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt_exact(-1)

    @given(st.integers(min_value=0, max_value=10**30))
    def test_floor_property(self, n):
        root, exact = isqrt_exact(n)
        assert root * root <= n < (root + 1) * (root + 1)
        assert exact == (root * root == n)


class TestFactorize:
    def test_small(self):
        assert factorize(1) == ()
        assert factorize(441) == ((3, 2), (7, 2))
        assert factorize(5625) == ((3, 2), (5, 4))

    def test_factor_pairs(self):
        assert factorize(99225) == ((3, 4), (5, 2), (7, 2))
        assert math.prod(p**e for p, e in factorize(99225)) == 99225

    @pytest.mark.parametrize("n, pairs", [
        (1, ()),
        (2, ((2, 1),)),
        (3, ((3, 1),)),
        (4, ((2, 2),)),
        (8, ((2, 3),)),
        (9, ((3, 2),)),
        (15, ((3, 1), (5, 1))),
        (25, ((5, 2),)),
        (49, ((7, 2),)),
        (121, ((11, 2),)),
        (2**20, ((2, 20),)),
        (999983, ((999983, 1),)),
        (3**4 * 5**2 * 7**2, ((3, 4), (5, 2), (7, 2))),
        # p*p == n: the loop must still try p = 997 before it stops
        (997 * 997, ((997, 2),)),
        (2 * 997 * 997, ((2, 1), (997, 2))),
        (997 * 1009, ((997, 1), (1009, 1))),
    ])
    def test_boundaries(self, n, pairs):
        assert factorize(n) == pairs

    def test_invalid(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert isinstance(fac, tuple)
        assert math.prod(p**e for p, e in fac) == n
        primes = [p for p, _ in fac]
        assert all(a < b for a, b in zip(primes, primes[1:]))
        for p, e in fac:
            assert e >= 1
            assert is_prime(p)

    def test_value_invariants_enforced_under_optimize(self):
        code = (
            "from oddmtc.exactmath import InvariantError\n"
            "from oddmtc.filters import FilterVerdict\n"
            "from oddmtc.gradings import GradingCase\n"
            "assert False, 'assert statements are live'\n"
            "broken = [\n"
            "    lambda: GradingCase((3, 3, 1)),\n"
            "    lambda: FilterVerdict('', '', 'x'),\n"
            "    lambda: FilterVerdict('r', 'c', ''),\n"
            "]\n"
            "for make in broken:\n"
            "    try:\n"
            "        print('accepted', make())\n"
            "    except InvariantError:\n"
            "        print('rejected')\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "rejected\n" * 3


class TestSquarefreeSplit:
    def test_examples(self):
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(25) == (5, 1)
        assert squarefree_split(45) == (3, 5)
        assert squarefree_split(99225) == (315, 1)
        with pytest.raises(ValueError):
            squarefree_split(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_roundtrip(self, n):
        u, w = squarefree_split(n)
        assert u * u * w == n
        # w squarefree: no prime exponent above 1
        assert all(e == 1 for _, e in factorize(w))


class TestPrimePredicates:
    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)

    def test_is_prime_power(self):
        assert is_prime_power(27)
        assert is_prime_power(7)
        assert not is_prime_power(1)
        assert not is_prime_power(15)
        assert not is_prime_power(441)
        with pytest.raises(ValueError):
            is_prime_power(0)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_prime_power_agrees_with_factorization(self, n):
        assert is_prime_power(n) == (len(factorize(n)) == 1)
