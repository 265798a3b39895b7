"""Exact integer / modular arithmetic primitives.

Everything in this module is pure integer arithmetic: factorization,
Jacobi symbols and CRT idempotents.  It also holds the work-budget
refusal, BudgetExceeded with its DEFAULT_BUDGET, which the evaluators
and the oracles raise alike.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Tuple


class BudgetExceeded(RuntimeError):
    """Raised when an exact evaluation would exceed the work budget."""

    def __init__(self, cost: int, budget: int):
        super().__init__(f"estimated cost {cost} exceeds budget {budget}")
        self.cost = cost
        self.budget = budget


DEFAULT_BUDGET = 10 ** 9

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_k for k = 1..13, the least strong pseudoprime to the first k of
#: _SMALL_PRIMES (OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson
#: and Webster, Math. Comp. 86, 2017): below psi_k those k bases decide
#: primality exactly
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
        3474749660383, 341550071728321, 341550071728321,
        3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)
_MR_LIMIT = _PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first k prime bases 2, 3, 5, ...

    After trial division by the 13 primes up to 41, n is tested to the
    first k bases, k the least with n < psi_k (_PSI): one base below 2047,
    two below 1373653, all 13 below psi_13 = 3317044064679887385961981.
    Larger n raise ValueError instead of risking a strong pseudoprime.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is proven only below {_MR_LIMIT}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of odd composite n (Brent's cycle variant)."""
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class FactoredModulus:
    """A positive integer together with its full prime factorization."""

    n: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be >= 1")
        prod = 1
        prev = 0
        for p, a in self.factors:
            if a < 1:
                raise ValueError(f"exponent {a} < 1 for prime {p}")
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p ** a
        if prod != self.n:
            raise ValueError("factors do not multiply to n")

    @property
    def prime_powers(self) -> List[int]:
        return [p ** a for p, a in self.factors]

    @cached_property
    def crt_idempotents(self) -> Tuple[int, ...]:
        """e_i = (n/q_i) * ((n/q_i)^-1 mod q_i) mod n for each prime power
        q_i: e_i = 1 (mod q_i) and e_i = 0 (mod every other q_k).

        Computed once per instance; not a field, so equality and hashing
        still read n and factors only."""
        n = self.n
        return tuple(n // q * mod_inverse(n // q % q, q) % n
                     for q in self.prime_powers)

    def divisor_count(self) -> int:
        out = 1
        for _, a in self.factors:
            out *= a + 1
        return out


_TRIAL_LIMIT = 10 ** 3


@lru_cache(maxsize=256)
def factorize(n: int) -> FactoredModulus:
    """Full prime factorization: trial division, then Miller-Rabin / Brent's rho.

    Trial division removes the primes below _TRIAL_LIMIT = 10^3, and a
    cofactor below the square of the last divisor tried is prime, so every
    n < 10^6 is factored by trial division alone.  A larger cofactor is
    tested with is_prime and split with Brent's rho, whose cost grows with
    the square root of its smallest prime factor: n near 10^12 costs on
    the order of 10^3 steps, not the ~2.7 * 10^5 of trial division to 10^6.
    Intended for n <= 2^63; rejects n = 0.

    Memoized, at most 256 entries (the bound of sqrtmod._sqrt_mod_all
    too), so every caller passes r as an int and a repeated r is
    factorized once.  The FactoredModulus returned is the
    cached object itself: it is frozen, so callers share it safely.  The
    memo holds only these small objects; factorize.cache_clear() releases
    them.  An exception is never cached, so a refused n is refused again
    on every call.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > 2 ** 63:
        raise ValueError("factorize caps n at 2^63")
    orig = n
    fac: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    stack = []
    if 1 < n < d * d:
        fac[n] = 1  # no prime below d divides n, so n is prime
    elif n > 1:
        stack.append(n)
    while stack:
        m = stack.pop()
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        g = _pollard_rho(m)
        stack.append(g)
        stack.append(m // g)
    return FactoredModulus(orig, tuple(sorted(fac.items())))


def jacobi(a: int, q: int) -> int:
    """Jacobi symbol (a/q) by binary reciprocity; q must be odd and positive."""
    if q <= 0 or q % 2 == 0:
        raise ValueError("jacobi requires odd positive q")
    a %= q
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if q % 8 in (3, 5):
                result = -result
        a, q = q, a
        if a % 4 == 3 and q % 4 == 3:
            result = -result
        a %= q
    return result if q == 1 else 0


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m >= 1, in [0, m) (0 when m = 1); raises
    ValueError if gcd(a, m) > 1."""
    try:
        return pow(a % m, -1, m)
    except ValueError:
        raise ValueError(f"{a} has no inverse mod {m}") from None


def eps_q(q: int) -> complex:
    """The normalized Gauss-sum sign: 1 for q = 1 mod 4, i for q = 3 mod 4."""
    if q % 2 == 0 or q < 1:
        raise ValueError("eps_q requires odd positive q")
    return 1 if q % 4 == 1 else 1j
