"""Odd-prime-modulus character sums: the constrained quadruple sum S4
with its exact closed form, weighted additive energies evaluated two
ways (a finite Poisson identity), and the cubic-form Legendre sum.

The closed form has one evaluator, s4_closed_rows, over many h rows at
one (j, r): the pair profiles and Gauss-sum Legendre values are shared
across its rows, and s4_closed is its one-row call.  Each pair sum, as a
function of l = k1 + k2, has one of two shapes: a point mass (r at
l = 0) or a prefactor times e_r(jbar c l^2), the constant r being the
latter with c = 0.  A row's value is the product of the two prefactors,
times the quadratic Gauss sum at c1 + c2 when neither pair is a point
mass.

Schwartz cutoffs are replaced throughout by finitely supported Fourier
data, which turns every Poisson-summation step into a finite exact
identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .arith import (DEFAULT_BUDGET, BudgetExceeded, eps_q, is_prime, jacobi,
                    mod_inverse)
from .expsums import ExpSumValue, unit_phases
from .sqrtmod import _residue_dtype


@dataclass(frozen=True)
class TrigWeight:
    """Finitely supported Fourier coefficients c(h), |h| <= width.

    Induces the 1-periodic weight phi(y) = sum_h c(h) e(h y), real-valued
    by the even extension c(-h) = c(h).
    """

    coeffs: Tuple[float, ...]  # c(0), c(1), ..., c(width)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least c(0)")
        if any(not 0 <= c <= 1 for c in self.coeffs):
            raise ValueError("coefficients must lie in [0, 1]")

    @property
    def width(self) -> int:
        return len(self.coeffs) - 1

    def c(self, h: int) -> float:
        h = abs(h)
        return self.coeffs[h] if h <= self.width else 0.0

    def support(self) -> range:
        return range(-self.width, self.width + 1)

    def phi(self, y):
        """phi at y, elementwise over an array y (the bare c(0) at width 0)."""
        out = self.coeffs[0]
        for h in range(1, len(self.coeffs)):
            out = out + 2 * self.coeffs[h] * np.cos(math.tau * h * y)
        return out

    def profile(self, t: float) -> float:
        """Piecewise-linear interpolation at |t| of c(0), ..., c(width) and
        0 at width + 1: max(0, 1 - |t| / W) for TrigWeight.fejer(W)."""
        t = abs(t)
        lo = int(math.floor(t))
        if lo > self.width:
            return 0.0
        hi = self.coeffs[lo + 1] if lo + 1 <= self.width else 0.0
        return self.coeffs[lo] * (1 - (t - lo)) + hi * (t - lo)

    @staticmethod
    def fejer(width: int) -> "TrigWeight":
        if width < 1:
            raise ValueError("width must be >= 1")
        return TrigWeight(tuple(max(0.0, 1 - h / width) for h in range(width)))


def _check_odd_prime(r: int) -> None:
    if r % 2 == 0 or not is_prime(r):
        raise ValueError("r must be an odd prime")


def _check_s4_modulus(j: int, r: int) -> None:
    _check_odd_prime(r)
    if math.gcd(j, r) != 1:
        raise ValueError("need gcd(j, r) = 1")


@dataclass(frozen=True)
class S4Input:
    j: int
    h: Tuple[int, int, int, int]
    r: int

    def __post_init__(self):
        _check_s4_modulus(self.j, self.r)


def _cyclic_pair_sums(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """T[l] = sum_k w1[k] * w2[(l - k) mod r], r = len(w1), by one FFT."""
    return np.fft.ifft(np.fft.fft(w1) * np.fft.fft(w2))


def _pair_sum_table(r: int, j: int, a1: int, a2: int) -> np.ndarray:
    """T[l] = sum over k1 + k2 = l (mod r) of e_r(jbar(a1 k1^2 + a2 k2^2)).

    The weights e_r(c k^2) are gathered from unit_phases(r) at the exact
    residues c k^2 mod r, taken in sqrtmod._residue_dtype(r), where each
    product, below r^2, fits."""
    jinv = mod_inverse(j, r)
    ks = np.arange(r, dtype=_residue_dtype(r, "r"))
    sq = ks * ks % r
    phases = unit_phases(r)
    return _cyclic_pair_sums(phases[jinv * a1 % r * sq % r],
                             phases[jinv * a2 % r * sq % r])


def s4_direct(inp: S4Input) -> ExpSumValue:
    """Literal evaluation of the constrained quadruple exponential sum.

    Sum over (k1..k4) mod r with k1 + k2 = k3 + k4 (mod r) of
    e_r(jbar(h1 k1^2 + h2 k2^2 + h3 k3^2 + h4 k4^2)), factored through
    two pair-sum tables (exact rearrangement, one transform each), after
    the charge r*ceil(log2 r); the tables' width rule refuses r^2 >= 2^63.
    """
    r, j = inp.r, inp.j
    h1, h2, h3, h4 = inp.h
    cost = r * (r - 1).bit_length()
    if cost > DEFAULT_BUDGET:
        raise BudgetExceeded(cost, DEFAULT_BUDGET)
    t12 = _pair_sum_table(r, j, h1, h2)
    t34 = _pair_sum_table(r, j, h3, h4)
    return ExpSumValue(complex(np.sum(t12 * t34)), r ** 3)


def _s2_profile(a: int, b: int, r: int, legendre: Callable[[int], complex]
                ) -> Tuple[bool, int, complex | int]:
    """The profile (point_mass, c, prefactor) of the pair sum over
    k1 + k2 = l of e_r(jbar(a k1^2 + b k2^2)), for residues a, b mod r.

    A point mass is prefactor r at l = 0 and 0 elsewhere; any other
    profile is prefactor * e_r(jbar c l^2).  legendre(s) is the quadratic
    Gauss sum over l of e_r(jbar s l^2) for a residue s != 0, i.e.
    eps_r sqrt(r) (j/r) (s/r).  The prefactor r stays an int: as
    complex(r) it would flip the sign of some zero imaginary parts."""
    if (a + b) % r == 0:
        # a = b = 0 is the constant r, the shape with c = 0
        return (b != 0, 0, r)
    # completing the square: c = a*b / (a+b), with the prefactor a plain
    # quadratic Gauss sum in the leading coefficient a + b
    c = a * b * mod_inverse(a + b, r) % r
    return (False, c, legendre((a + b) % r))


def s4_closed_rows(j: int, r: int,
                   rows: Iterable[Sequence[int]]) -> Iterator[complex]:
    """s4_closed's value for every row h = (h1, h2, h3, h4), at one (j, r).

    Validates (j, r) once, on the call, then shares the work across rows:
    the profile of each distinct pair (h_a mod r, h_b mod r) and each
    Gauss-sum Legendre value are computed once, and only their
    combination runs per row.  The values are yielded as the rows are
    read, so a lattice of any size streams: memory grows only with the
    distinct pairs and residues seen.  Rows may hold any integers,
    negative or >= r, and r may exceed 2^31: every residue is a Python
    int.
    """
    _check_s4_modulus(j, r)
    return _s4_closed_values(j, r, rows)


def _s4_closed_values(j: int, r: int,
                      rows: Iterable[Sequence[int]]) -> Iterator[complex]:
    """s4_closed_rows for a (j, r) already validated."""
    gauss = eps_q(r) * math.sqrt(r) * jacobi(j, r)
    legendre_memo: Dict[int, complex] = {}

    def legendre(s: int) -> complex:
        v = legendre_memo.get(s)
        if v is None:
            v = legendre_memo[s] = gauss * jacobi(s, r)
        return v

    def quad_sum(c: int) -> complex:
        """sum over l mod r of e_r(jbar * c * l^2), in closed form."""
        c %= r
        return complex(r) if c == 0 else legendre(c)

    profiles: Dict[Tuple[int, int], tuple] = {}

    def profile(a: int, b: int) -> tuple:
        key = (a % r, b % r)
        prof = profiles.get(key)
        if prof is None:
            prof = profiles[key] = _s2_profile(key[0], key[1], r, legendre)
        return prof

    for h1, h2, h3, h4 in rows:
        mass1, c1, p1 = profile(h1, h2)
        mass2, c2, p2 = profile(h3, h4)
        # the sum over l of the two profiles' product: a point mass reads
        # the other profile at l = 0, where it is its prefactor
        if mass1 or mass2:
            yield complex(p1 * p2)
        else:
            yield complex(p1 * p2 * quad_sum(c1 + c2))


def s4_closed(inp: S4Input) -> ExpSumValue:
    """Exact closed form of s4_direct for odd prime r: the one-row case of
    s4_closed_rows.

    Factors the constrained sum through the two pair sums, each of which
    collapses (by completing the square, with the convention
    a1*a2/(a1+a2) := 0 when a1 + a2 = 0) to a point mass at l = 0 or a
    multiple of e_r(jbar c l^2), the constant r included (c = 0); the
    outer sum over l is then a prefactor product or a quadratic Gauss
    sum.  Agrees with s4_direct for every h, including the degenerate
    patterns where exactly one entry of a pair vanishes.
    """
    r = inp.r
    return ExpSumValue(next(_s4_closed_values(inp.j, r, (inp.h,))), r ** 3)


def weighted_energy(R: int, j: int, r: int, weight: TrigWeight,
                    budget: int = DEFAULT_BUDGET) -> Dict[str, float]:
    """Weighted quadruple energy, evaluated two independent ways.

    direct: sum over l of g(l)^2, g(l) the sum over k1 + k2 = l (mod r) of
    v(k1) v(k2) from the cyclic pair-sum transform, for the pointwise
    weights v(k) = (R/r) * phi(jbar k^2 / r); it never reads S4.
    spectral: (R/r)^4 * sum over the finite h-lattice of the coefficient
    products times S4(j; h) from the closed form, all nonzero-coefficient
    rows in one s4_closed_rows call, accumulated in lattice order.
    The two agree exactly up to floating error (finite Poisson identity).
    Cost: max(r (width + ceil(log2 r)), (2 width + 1)^4 lattice rows).
    """
    _check_s4_modulus(j, r)
    if not 1 <= R <= r:
        raise ValueError("need 1 <= R <= r")
    cost = max(r * (weight.width + (r - 1).bit_length()),
               (2 * weight.width + 1) ** 4)
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    nu = R / r
    jinv = mod_inverse(j, r)
    ks = np.arange(r, dtype=_residue_dtype(r, "r"))
    v = np.broadcast_to(nu * weight.phi(ks * ks % r * jinv % r / r), r)
    g = _cyclic_pair_sums(v, v).real
    direct = float(np.dot(g, g))
    hs = list(weight.support())

    def lattice():
        for h1 in hs:
            cf1 = weight.c(h1)
            for h2 in hs:
                cf12 = cf1 * weight.c(h2)
                for h3 in hs:
                    cf123 = cf12 * weight.c(h3)
                    for h4 in hs:
                        cf = cf123 * weight.c(h4)
                        if cf != 0.0:
                            yield cf, (h1, h2, h3, h4)

    # both lattice copies advance in step, so tee buffers one term
    terms, rows = itertools.tee(lattice())
    values = s4_closed_rows(j, r, (h for _, h in rows))
    spectral = 0j
    for (cf, _), value in zip(terms, values):
        spectral += cf * value
    spectral_val = nu ** 4 * spectral.real
    return {"direct": direct, "spectral": spectral_val,
            "rel_error": abs(direct - spectral_val) / max(abs(direct), 1e-300)}


def cubic_form_charsum(M: int, r: int, weight: TrigWeight,
                       budget: int = DEFAULT_BUDGET) -> Dict[str, float]:
    """Weighted cubic-form Legendre sum with bound margins.

    sum over the h-lattice of prod W(h_i / M) times the Jacobi symbol of
    h1 h2 h3 + h1 h2 h4 + h1 h3 h4 + h2 h3 h4, where W is the weight's
    coefficient profile rescaled to cutoff M.  W(t) can be nonzero for
    |t| < width + 1, so the lattice is every |h_i| < M (width + 1), and
    its (2 M (width + 1) - 1)^4 points are charged first.  Margins are
    reported against (M^{1/2} r^{3/2} + M^2 r^{1/2} + M^3) and, when
    M = floor(sqrt(r)), against r^{7/4}; both are monitors at eps = 0.
    """
    _check_odd_prime(r)
    if M < 1:
        raise ValueError("M must be >= 1")
    half = M * (weight.width + 1) - 1
    cost = (2 * half + 1) ** 4
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    hs: List[int] = []
    wt: Dict[int, float] = {}
    for h in range(-half, half + 1):
        w = weight.profile(h / M)
        if w != 0.0:
            hs.append(h)
            wt[h] = w
    total = 0.0
    for h1 in hs:
        w1 = wt[h1]
        for h2 in hs:
            w12 = w1 * wt[h2]
            p12 = h1 * h2
            s12 = h1 + h2
            for h3 in hs:
                w123 = w12 * wt[h3]
                a3 = p12 * h3
                b3 = (p12 + h3 * s12)
                for h4 in hs:
                    sym = a3 + b3 * h4
                    total += w123 * wt[h4] * jacobi(sym % r, r)
    bound = M ** 0.5 * r ** 1.5 + M * M * r ** 0.5 + M ** 3
    out = {"value": total, "bound": bound, "margin": abs(total) / bound}
    if M == math.isqrt(r):
        out["sqrt_margin"] = abs(total) / r ** 1.75
    return out
