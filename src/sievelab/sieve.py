"""Large-sieve left-hand sides, Farey-window counts P(x), Dirichlet
approximation frames and the explicit-constant inequality checks
(classical large sieve with constant 1, double large sieve with
constant 5).

x, Delta, z and b/r are exact rationals end to end; doubles appear only
in the final trigonometric evaluations.  The large-sieve left-hand side
forms no phase: it is an integer-weighted sum of squared residue-class
sums of the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import (DEFAULT_BUDGET, BudgetExceeded, factorize, is_prime,
                    mod_inverse)


@dataclass
class SieveInstance:
    """Coefficients a_n for M < n <= M+N with modulus cap Q."""

    M: int
    coefficients: np.ndarray
    Q: int

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.size < 1:
            raise ValueError("need N >= 1 coefficients")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")

    @property
    def N(self) -> int:
        return self.coefficients.size

    @property
    def Z(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))


def ls_lhs_cost(N: int, Q: int) -> int:
    """Work ls_lhs declares for (N, Q): K + N min(N, K), where
    K = Q (bit_length(Q) + 1) >= Q (1 + ln Q) bounds both the steps of
    the Mobius sieve and the pairs (s, k) of _class_weights, and each of at
    most min(N, K) class moduli D < N sums the N coefficients once."""
    K = Q * (Q.bit_length() + 1)
    return K + N * min(N, K)


def _mobius(n: int) -> List[int]:
    """mu(m) for 0 <= m <= n, mu(0) = 0, by one sieve: each prime p flips
    the sign of its multiples and zeroes those of p^2."""
    mu = [1] * (n + 1)
    mu[0] = 0
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for m in range(p, n + 1, p):
            composite[m] = 1
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def _class_weights(Q: int, N: int, square: bool) -> Tuple[Dict[int, int], int]:
    """The class weights of ls_lhs: ({D: w_D} for the class moduli D < N
    with w_D != 0, the summed w_D of every D >= N).

    By c_d(t) = sum over squarefree s | d of mu(s) (d/s) [d/s divides t],
    the pair (q, s), s | q squarefree, contributes mu(s) D to w_D at
    D = d_q / s; with q = s k that is D = k (classical, d_q = q) or
    D = s k^2 (squares, d_q = q^2), for every squarefree s <= Q and
    k <= Q / s.  So classical w_d = d M(Q // d), M the Mertens function.
    """
    weights: Dict[int, int] = {}
    beyond = 0
    for s, sign in enumerate(_mobius(Q)):
        if not sign:
            continue
        for k in range(1, Q // s + 1):
            D = s * k * k if square else k
            if D < N:
                weights[D] = weights.get(D, 0) + sign * D
            else:
                beyond += sign * D
    return {D: w for D, w in weights.items() if w}, beyond


def ls_lhs(inst: SieveInstance, moduli: str = "classical",
           budget: int = DEFAULT_BUDGET) -> float:
    """The large-sieve left-hand side, from the residue-class sums of the
    coefficients.

    classical: sum over q <= Q and reduced a <= q of |sum a_n e(na/q)|^2;
    squares: the same over the denominators d_q = q^2.  Expanding the
    square, sum over reduced a mod d of e(ta/d) is the Ramanujan sum
    c_d(t) (Hardy and Wright, Thm 272), and summing c_{d_q}(n - m) over q
    turns the sum into sum over D of w_D sum over c mod D of |S_{D,c}|^2,
    S_{D,c} the sum of the a_n with n = c mod D, for the weights of
    _class_weights.  A class modulus D >= N puts each a_n in its own
    class, so those D add their weights times ||a||^2.  Each D < N costs
    one reshape-and-sum of the coefficients, so the work is O(N K + Q)
    with K <= Q class moduli (classical) or sum over q <= Q of
    2^omega(q) (squares), against N sum phi(d_q) phase gathers for the
    literal sum, oracles.ls_lhs_literal.  A shift of n permutes the
    classes, so M is not read and the result is equal for every M.  The
    result is a float sum; with Gaussian-integer coefficients every class
    sum is an exact integer, but the float total is not certified.
    Charges ls_lhs_cost(N, Q) before any array is built.
    """
    if moduli not in ("classical", "squares"):
        raise ValueError(f"unknown moduli family {moduli!r}")
    N, Q = inst.N, inst.Q
    cost = ls_lhs_cost(N, Q)
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    weights, beyond = _class_weights(Q, N, moduli == "squares")
    a = inst.coefficients
    total = beyond * float(np.vdot(a, a).real)
    # a zero-padded copy, so each D < N reshapes ceil(N / D) full rows
    padded = np.zeros(2 * N, dtype=complex)
    padded[:N] = a
    for D, w in weights.items():
        sums = padded[:-(-N // D) * D].reshape(-1, D).sum(axis=0)
        total += w * float(np.vdot(sums, sums).real)
    return total


def ls_bound_table(Q: int, N: int) -> Dict[str, object]:
    """Evaluate the published bound brackets at eps = 0 for given (Q, N)."""
    if Q < 1 or N < 1:
        raise ValueError("Q and N must be >= 1")
    sqN, sqQ = math.sqrt(N), math.sqrt(Q)
    return {
        "Q": Q,
        "N": N,
        "classical": Q ** 2 + N - 1,
        "zhao": Q ** 3 + Q ** 2 * sqN + sqQ * N,
        "best_known": Q ** 3 + N + min(Q ** 2 * sqN, sqQ * N),
        "conjecture": Q ** 3 + N,
        "conditional_at_cube": Q ** (3.5 - 1 / 135) if N == Q ** 3 else None,
        "qn_window": Q ** 2 <= N <= Q ** 4,
    }


@dataclass(frozen=True)
class ApproxFrame:
    """Diophantine data x = b/r + z with r <= tau, gcd(b,r) = 1."""

    x: Fraction
    N: int
    b: int
    r: int
    z: Fraction

    def __post_init__(self):
        if math.gcd(self.b, self.r) != 1:
            raise ValueError("need gcd(b, r) = 1")
        if not 1 <= self.r <= self.tau:
            raise ValueError("need 1 <= r <= tau")
        if self.x - Fraction(self.b, self.r) != self.z:
            raise ValueError("z must equal x - b/r exactly")
        if abs(self.z) > Fraction(1, self.r * self.tau):
            raise ValueError("|z| must be <= 1/(r*tau)")

    @property
    def tau(self) -> int:
        return math.isqrt(self.N)

    @property
    def j(self) -> int:
        """j = -inverse(b) mod r, so j*b = -1 (mod r)."""
        return (-mod_inverse(self.b, self.r)) % self.r


def dirichlet_approx(x: Fraction, tau: int) -> Tuple[int, int, Fraction]:
    """Approximate x by b/r with r <= tau and |x - b/r| <= 1/(r*tau).

    Deterministic: the continued-fraction convergent of x with the
    largest denominator not exceeding tau (this always satisfies the
    required inequality, and reproduces x exactly when possible).
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    x = Fraction(x)
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = x.numerator, x.denominator
    best: Tuple[int, int] | None = None  # set on the first pass: q1 = 1
    while den:
        a = num // den
        num, den = den, num - a * den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > tau:
            break
        best = (p1, q1)
    b, r = best
    z = x - Fraction(b, r)
    assert abs(z) <= Fraction(1, r * tau)
    return b, r, z


def build_frame(x: Fraction, N: int) -> ApproxFrame:
    if N < 1:
        raise ValueError("need N >= 1")
    tau = math.isqrt(N)
    b, r, z = dirichlet_approx(x, tau)
    return ApproxFrame(Fraction(x), N, b, r, z)


@dataclass(frozen=True)
class PxQuery:
    """Window count parameters: fractions a/q^2 near x within Delta."""

    x: Fraction
    Q: int
    delta: Fraction

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("Delta must be positive")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")


def _px_omega_max(n: int) -> int:
    """The most distinct prime factors of any m <= n: the number of
    primorials 2, 2*3, 2*3*5, ... that do not exceed n."""
    omega, primorial, p = 0, 1, 1
    while True:
        p += 1
        if not is_prime(p):
            continue
        if primorial * p > n:
            return omega
        omega, primorial = omega + 1, primorial * p


def px_cost(Q: int) -> int:
    """Work px_count declares for Q: a bound on its inclusion-exclusion
    terms, one sum over the 2^omega(q) squarefree divisors of each q in
    (Q, 2Q], by the largest omega of any m <= 2Q."""
    return Q * 2 ** _px_omega_max(2 * Q)


def _units_between(lo: int, hi: int, primes: Sequence[int]) -> int:
    """#{lo <= a <= hi : gcd(a, p) = 1 for every p in primes}, for any
    integers lo <= hi + 1, by Legendre's inclusion-exclusion
    sum over d | prod(primes) of mu(d) (floor(hi/d) - floor((lo-1)/d))."""
    divisors = [(1, 1)]
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    return sum(mu * (hi // d - (lo - 1) // d) for d, mu in divisors)


def px_count(query: PxQuery, budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of distinct reduced fractions a/q^2, Q < q <= 2Q,
    gcd(a,q) = 1, with ||a/q^2 - x|| <= Delta (x is taken mod 1).

    Counts without enumerating.  With x reduced to [0, 1), the a in
    [1, q^2] within Delta of x are the residues mod q^2 of the integers
    in the window [ceil((x-Delta) q^2), floor((x+Delta) q^2)]; the
    windows around x - 1, x and x + 1 that the oracle walks are this one
    shifted by q^2.  A window of q^2 or more integers holds every
    residue, so every a in [1, q^2] counts; a shorter one holds each
    residue at most once, and gcd(a, q) is periodic in a with period q,
    so its units are counted on the window itself by _units_between
    over the primes of factorize(q).  The window ends come from the
    numerators and denominators of x and Delta in integer arithmetic,
    so the count is exact.  No set is needed: gcd(a, q) = 1 is
    gcd(a, q^2) = 1, so each counted a/q^2 is reduced, and distinct q
    give distinct denominators.

    Charges px_cost(Q), a bound on its inclusion-exclusion terms, before
    any window is counted; oracles.px_count_literal is the oracle.
    """
    x, Q, delta = Fraction(query.x) % 1, query.Q, Fraction(query.delta)
    cost = px_cost(Q)
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    # (x -/+ Delta) q^2 = (num -/+ rad) q^2 / den exactly
    den = x.denominator * delta.denominator
    num = x.numerator * delta.denominator
    rad = delta.numerator * x.denominator
    total = 0
    for q in range(Q + 1, 2 * Q + 1):
        q2 = q * q
        lo, hi = -((rad - num) * q2 // den), (num + rad) * q2 // den
        if hi - lo + 1 >= q2:
            lo, hi = 1, q2
        total += _units_between(lo, hi, [p for p, _ in factorize(q).factors])
    return total


def propmain_bounds(Q: int, delta: float, r: int) -> Dict[str, float]:
    """The four conditional P(x) regime brackets at eps = 0.

    Thresholds (general form): r-ranges split at Q^{-71/33} delta^{-12/11},
    Q^{29/27} delta^{1/6} and Q^{45/67} delta^{10/67}.
    """
    d = delta
    t1 = Q ** (-71 / 33) * d ** (-12 / 11)
    t2 = Q ** (29 / 27) * d ** (1 / 6)
    t3 = Q ** (45 / 67) * d ** (10 / 67)
    b1 = 1 + Q ** (17 / 8) * d ** 0.5 * r ** (-1 / 8) + Q ** (9 / 8) * d ** 0.25
    b2 = (Q ** 1.9 * d ** 0.45 * r ** (-0.1) + Q ** 1.4 * d ** (13 / 40) * r ** (1 / 40)
          + Q ** 11 * d ** 5 * r ** 4 + r ** 0.25 * Q ** -0.25 + Q / r + 1 + Q ** 3 * d)
    b3 = (Q ** 1.5 * d ** (1 / 3) * r ** (-1 / 30) + Q ** 0.5 * r ** (-0.1)
          + r ** 2.6 / Q + Q ** 8 * d ** 3 * r ** 0.2 + 1 + Q ** 3 * d)
    b4 = (Q ** (9 / 7) * d ** (2 / 7) * r ** (2 / 7) + Q ** 1.5 * d ** 0.375 * r ** 0.25
          + Q ** (11 / 7) * d ** (25 / 56) * r ** (9 / 28)
          + Q ** 5 * d ** 1.75 * r ** -0.5 + r ** 3 / Q ** 2 + 1 + Q ** 3 * d)
    if r > t1:
        regime, bound = 1, b1
    elif r > t2:
        regime, bound = 2, b2
    elif r > t3:
        regime, bound = 3, b3
    else:
        regime, bound = 4, b4
    return {"regime": regime, "bound": bound,
            "thresholds": (t1, t2, t3),
            "all_bounds": (b1, b2, b3, b4)}


def px_monitor(x: Fraction, Q: int, N: int,
               budget: int = DEFAULT_BUDGET) -> Dict[str, object]:
    """P(x) against the published brackets at eps = 0 (ratios, not pass/fail)."""
    x = Fraction(x)
    frame = build_frame(x, N)
    delta = Fraction(1, N)
    count = px_count(PxQuery(x, Q, delta), budget=budget)
    out: Dict[str, object] = {
        "x": str(x), "Q": Q, "N": N, "count": count,
        "r": frame.r, "b": frame.b, "z": str(frame.z), "j": frame.j,
        "conj_bound": 1 + Q ** 3 * float(delta),
        "conj_ratio": count / (1 + Q ** 3 * float(delta)),
    }
    if frame.z == 0:
        out["z_zero"] = True
        return out
    zf = abs(float(frame.z))
    prev = 1 + Q ** 2 * frame.r * zf + Q ** 3 * float(delta)
    out["previous_bound"] = prev
    out["previous_ratio"] = count / prev
    pm = propmain_bounds(Q, float(delta), frame.r)
    out["propmain_regime"] = pm["regime"]
    out["propmain_bound"] = pm["bound"]
    out["propmain_ratio"] = count / pm["bound"]
    return out


def double_sieve_check(
    alphas: Sequence[float], a: Sequence[complex],
    betas: Sequence[float], b: Sequence[complex],
    A: float, B: float,
) -> Dict[str, float]:
    """Bilinear-form inequality with explicit constant 5.

    |sum a_k b_l e(alpha_k beta_l)| <= 5 sqrt(AB+1) * (close-alpha pair
    sum)^{1/2} * (close-beta pair sum)^{1/2}.  Returns lhs, rhs and slack.
    """
    al = np.asarray(alphas, dtype=float)
    be = np.asarray(betas, dtype=float)
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if np.max(np.abs(al), initial=0.0) > A or np.max(np.abs(be), initial=0.0) > B:
        raise ValueError("|alpha| <= A and |beta| <= B are required")
    lhs = abs(np.sum(av[:, None] * bv[None, :]
                     * np.exp(math.tau * 1j * np.outer(al, be))))
    close_a = np.abs(al[:, None] - al[None, :]) < 1.0 / B
    close_b = np.abs(be[:, None] - be[None, :]) < 1.0 / A
    pa = float(np.sum(np.abs(av)[:, None] * np.abs(av)[None, :] * close_a))
    pb = float(np.sum(np.abs(bv)[:, None] * np.abs(bv)[None, :] * close_b))
    rhs = 5.0 * math.sqrt(A * B + 1) * math.sqrt(pa) * math.sqrt(pb)
    return {"lhs": float(lhs), "rhs": rhs, "slack": rhs - float(lhs)}

