"""The independent oracles: every literal evaluation that a fast path of
sievelab is checked against, each written from its definition.

- root_multiset, for sqrtmod.build_root_multiset: squares every residue
  (_square_groups) and counts the roots of each m in a dict;
- pair_energies, for the energies' method "brute": enumerates every
  ordered pair sum once (_dense_pair_hist), for E2 and E4 alike;
- esum_bare, for expsums.esum_jh(form="bare"): the root-difference sum
  over the squaring groups, one e_frac per term;
- gcal_literal and rational_literal, for expsums.gcal and
  expsums.rational_expsum: one pow(., -1, q) and e_frac per term;
- px_count_literal, for sieve.px_count: every a of the windows, tested
  with math.gcd and Fraction;
- ls_lhs_literal, for sieve.ls_lhs: every reduced fraction a/d_q, its
  phases e(na/d_q) from one table of exponentials per denominator;
- gcd_power_sum, for criterion 9's sums: gcd(h, r)^sigma term by term.

e_frac, the scalar phase, lives here too; expsums reads it back for the
closed Gauss sum, which is an identity under test, not an oracle.

Independence is an import rule: this module imports the standard library
modules __future__, cmath, fractions, functools, math, types and typing,
numpy, and from arith only BudgetExceeded, DEFAULT_BUDGET and
mod_inverse; no fast module and no factorization.
tests/test_imports_used.py pins that list, so a speed-up of a fast path
cannot route its own oracle through it.  None of these oracles
factorizes r or calls a square-root solver.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .arith import DEFAULT_BUDGET, BudgetExceeded, mod_inverse


def e_frac(num: int, den: int) -> complex:
    """e(num/den) with the argument reduced exactly in integers."""
    return cmath.exp(math.tau * 1j * ((num % den) / den))


#: largest r that _square_groups squares: its groups hold O(r) Python
#: tuples, and pair_energies counts its pair sums in r bins (8 MB of int64)
_ORACLE_MAX_R = 1 << 20


@lru_cache(maxsize=1)
def _square_groups(n: int, j: int) -> Mapping[int, Tuple[int, ...]]:
    """Every k in [0, n), grouped by m = j^-1 k^2 mod n, ascending in k.

    The squaring side of three oracles: the plain and difference root
    multisets (root_multiset) and the bare root-difference sum
    (esum_bare).  It depends only on (n, j mod n), so criterion 3's
    points of one (r, j), plain and difference alike, share it; the memo
    keeps the most recent key only.  So after a call the groups of that
    (n, j) stay alive: O(n) tuples, about 79 MB at n = 2^20.  A
    command-line call exits and frees them; a library caller releases
    them with oracles._square_groups.cache_clear().  It refuses
    n > _ORACLE_MAX_R first, and no oracle factorizes or solves before
    it, so that refusal comes before any work.  The groups are read-only
    (a mapping proxy over tuples), so no caller can corrupt them.
    """
    if n > _ORACLE_MAX_R:
        raise ValueError(f"r = {n} too large for the squaring oracle: it "
                         "squares every residue mod r, so r must be <= "
                         f"{_ORACLE_MAX_R}")
    jinv = mod_inverse(j, n)
    groups: Dict[int, List[int]] = {}
    for k in range(n):
        groups.setdefault(k * k * jinv % n, []).append(k)
    return MappingProxyType({m: tuple(ks) for m, ks in groups.items()})


def root_multiset(R: int, j: int, r: int,
                  h: int | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """sqrtmod.build_root_multiset's oracle, in its format: the plain
    multiset (h None) of the roots of jm, or the difference multiset of
    the roots of j(m + h) minus those of jm, for m in [1, R], as int64
    (keys, counts) with the keys strictly ascending.

    The roots of each m are its group in _square_groups(r, j mod r); the
    residues are counted in a dict and the keys sorted once.  r must be
    at most 2^20.
    """
    if not 1 <= R <= r:
        raise ValueError("need 1 <= R <= r")
    if math.gcd(j, r) != 1:
        raise ValueError("need gcd(j, r) = 1")
    groups = _square_groups(r, j % r)
    table: Dict[int, int] = {}
    for m in range(1, R + 1):
        lams = groups.get(m % r, ())
        if h is not None and lams:
            kts = groups.get((m + h) % r, ())
            lams = [(kt - k) % r for k in lams for kt in kts]
        for lam in lams:
            table[lam] = table.get(lam, 0) + 1
    keys = sorted(table)
    return (np.array(keys, dtype=np.int64),
            np.array([table[k] for k in keys], dtype=np.int64))


def _dense_pair_hist(values: np.ndarray, r: int) -> np.ndarray:
    """Histogram of (v1 + v2) mod r over all ordered pairs, by enumeration."""
    if values.size == 0:
        return np.zeros(r, dtype=np.int64)
    sums = np.add.outer(values, values).ravel() % r
    return np.bincount(sums, minlength=r).astype(np.int64)


def pair_energies(keys: np.ndarray, counts: np.ndarray, r: int,
                  fold: int) -> Tuple[int, ...]:
    """The energies of a multiset (keys, counts) mod r, by enumeration:
    (E2,) for fold 2, the sum of squared bins of its pair sums, and
    (E2, E4) for fold 4, E4 that of the pair sums of the same bins.

    Each key is repeated by its count and every ordered pair summed into
    r dense bins, once; fold 4 then adds the bins' own pair sums,
    weighted by the product of two bins.  The caller certifies
    mass^fold < 2^63, so no int64 bin wraps; the squares are summed as
    Python ints.
    """
    h = _dense_pair_hist(np.repeat(keys, counts), r)
    energies = [sum(c * c for c in h.tolist())]
    if fold == 4:
        support = np.nonzero(h)[0]
        sums = np.add.outer(support, support).ravel() % r
        weights = np.multiply.outer(h[support], h[support]).ravel()
        h = np.zeros(r, dtype=np.int64)
        np.add.at(h, sums, weights)
        energies.append(sum(c * c for c in h.tolist()))
    return tuple(energies)


def esum_bare(l: int, n: int, j: int, h: int, r: int) -> Tuple[complex, int]:
    """(value, terms) of the bare root-difference sum: over a mod r and
    root pairs k^2 = ja, kt^2 = j(a + h), of e_r(l(kt - k) + n a).

    The k with k^2 = ja mod r are the group of a in _square_groups, so r
    must be at most 2^20; one e_frac per term.
    """
    groups = _square_groups(r, j % r)
    total = 0j
    terms = 0
    for a in range(1, r + 1):
        ks = groups.get(a % r, ())
        if not ks:
            continue
        kts = groups.get((a + h) % r, ())
        for k in ks:
            for kt in kts:
                total += e_frac(l * (kt - k) + n * a, r)
                terms += 1
    return total, terms


def gcal_literal(q: int, a: int, b: int, j: int, k: int, u: int,
                 s: int) -> complex:
    """G(q;a,b,j,k,u,s) term by term, one pow(., -1, q) and e_frac each."""
    total = 0j
    for c in range(1, q + 1):
        if math.gcd(c, q) == 1:
            inv = pow(4 * j * s ** 3 * c * c, -1, q)
            total += e_frac(a * c + b * (j * k - u * s * s * c * c) ** 2 * inv, q)
    return total


def rational_literal(num: Sequence[int], den: Sequence[int],
                     p: int) -> Tuple[complex, int]:
    """(S(f,p), terms) over n mod p with f2(n) != 0, term by term, for
    f = f1/f2 with coefficient lists num and den in ascending powers."""
    total, terms = 0j, 0
    for n in range(p):
        f2 = sum(c * n ** i for i, c in enumerate(den)) % p
        if f2:
            f1 = sum(c * n ** i for i, c in enumerate(num))
            total += e_frac(f1 * pow(f2, -1, p), p)
            terms += 1
    return total, terms


def px_count_literal(query, budget: int = DEFAULT_BUDGET) -> int:
    """sieve.px_count's oracle: the count of distinct reduced a/q^2,
    Q < q <= 2Q, within Delta of x mod 1, by enumeration, for a
    sieve.PxQuery (any object with x, Q and delta).

    Every a in the windows around x - 1, x and x + 1 (x taken mod 1) is
    tested with math.gcd, and its circular distance to x decided in
    exact Fraction arithmetic; a set removes the a that two overlapping
    windows share.  Charges the candidates it enumerates, about
    sum over q of 2 Delta q^2, before the loop starts.
    """
    x, Q, delta = Fraction(query.x) % 1, query.Q, Fraction(query.delta)
    cost = sum(min(q * q, int(2 * delta * q * q) + 4)
               for q in range(Q + 1, 2 * Q + 1))
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    seen = set()
    for q in range(Q + 1, 2 * Q + 1):
        q2 = q * q
        for shift in (-1, 0, 1):
            lo = (x + shift - delta) * q2
            hi = (x + shift + delta) * q2
            a_lo = max(1, math.ceil(lo))
            a_hi = min(q2, math.floor(hi))
            for a in range(a_lo, a_hi + 1):
                if math.gcd(a, q) != 1:
                    continue
                d = abs(Fraction(a, q2) - x)
                dist = min(d % 1, 1 - d % 1)
                if dist <= delta:
                    seen.add(Fraction(a, q2))
    return len(seen)


def ls_lhs_literal(inst, moduli: str = "classical",
                   budget: int = DEFAULT_BUDGET) -> float:
    """sieve.ls_lhs's oracle: the large-sieve left-hand side by its
    definition, for a sieve.SieveInstance (any object with M, Q, N and
    the complex coefficients of n in (M, M + N]).

    classical: sum over q <= Q and reduced a <= q of |sum a_n e(na/q)|^2;
    squares:   denominators q^2 with reduced numerators a <= q^2.  For
    each denominator d the phases n a mod d are exact residues, n
    entering as (M + 1) mod d, a Python int, plus 0..N-1, so M may be
    any integer; e(t/d) is gathered from the d exponentials formed here.
    Charges N Q^2 (classical) or N Q^3 (squares) before the loop starts.
    """
    if moduli not in ("classical", "squares"):
        raise ValueError(f"unknown moduli family {moduli!r}")
    N, Q = inst.N, inst.Q
    cost = N * Q ** (2 if moduli == "classical" else 3)
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    ns = np.arange(N, dtype=np.int64)
    total = 0.0
    for q in range(1, Q + 1):
        den = q if moduli == "classical" else q * q
        a_vals = np.arange(1, den + 1, dtype=np.int64)
        a_vals = a_vals[np.gcd(a_vals, q) == 1]
        phases = np.multiply.outer(a_vals, ns + (inst.M + 1) % den) % den
        table = np.exp(math.tau * 1j * np.arange(den) / den)
        inner = table[phases] @ inst.coefficients
        total += float(np.sum(np.abs(inner) ** 2))
    return total


def gcd_power_sum(H: int, r: int, sigma: Fraction | float) -> float:
    """Sum of gcd(h, r)^sigma over 1 <= h <= H, term by term.

    Bounded by H * tau(r) for 0 < sigma <= 1 (constant exactly 1).
    """
    if H < 1 or r < 1:
        raise ValueError("H and r must be >= 1")
    s = float(sigma)
    if not 0 < s <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    total = 0.0
    for h in range(1, H + 1):
        total += math.gcd(h, r) ** s
    return total
