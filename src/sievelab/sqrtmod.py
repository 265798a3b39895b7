"""Complete sets of square roots of m modulo r, for arbitrary composite r.

A "square root of m mod r" means every k in [0, r) with k^2 = m (mod r).
Prime powers p^a have two solvers on one schedule: _sqrt_mod_prime_power
for one Python int, and _prime_power_residue_roots for every residue of a
numpy array at once.  Both solve the unit part w of m = w p^beta (beta
even) by a fixed-schedule Tonelli-Shanks and Hensel lifting (explicit case
analysis at p = 2) and scale its roots by p^(beta/2).  The array solver
serves the root multisets' array pass (_residue_roots).  Composite
moduli recombine the prime-power roots by CRT with the idempotents
FactoredModulus.crt_idempotents.  The bulk root tables (root_pairs) are
built by their definition instead, by squaring every residue, and
criterion 1 checks the array solver against them.

Every public function takes r as an int; sqrt_mod_all, root_pairs, the
multiset builders and the width rule read their integers through
operator.index, so a numpy integer counts as the int it holds and a
float raises TypeError.  sqrt_mod_all's memo is keyed on the integers
(m mod r, r), and factorizes r only on a miss, through arith.factorize;
the FactoredModulus stays inside the private helpers.

One rule, _residue_dtype, decides the width of each residue kernel that
may run in 32 bits: it refuses n^2 >= 2^63 and picks 32 bits while
n^2 < 2^31, 64 above, signed or unsigned as the kernel asks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import FactoredModulus, factorize, mod_inverse


@dataclass(frozen=True)
class RootSet:
    """All k in [0, r) with k^2 = m (mod r), sorted, for m in [0, r)."""

    modulus: int
    m: int
    roots: Tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.m < self.modulus:
            raise ValueError(f"m = {self.m} is not in [0, {self.modulus})")
        for k in self.roots:
            if (k * k - self.m) % self.modulus != 0:
                raise ValueError(f"{k} is not a root of {self.m} mod {self.modulus}")
        if list(self.roots) != sorted(set(self.roots)):
            raise ValueError("roots must be sorted and duplicate-free")
        # sorted, so the ends bound every root
        if self.roots and not (0 <= self.roots[0]
                               and self.roots[-1] < self.modulus):
            raise ValueError(f"roots must lie in [0, {self.modulus})")

    def __len__(self) -> int:
        return len(self.roots)

    def __contains__(self, k: int) -> bool:
        return k in self.roots


def _as_int(x) -> int:
    """x as a Python int, through operator.index: a numpy integer or a
    bool counts as the int it holds, and a float raises TypeError."""
    return int(operator.index(x))


def _two_adic(p: int) -> Tuple[int, int]:
    """(q, s) with p - 1 = q * 2^s and q odd, for an odd prime p."""
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    return (p - 1) >> s, s


def _nonresidue_power(p: int, q: int) -> int:
    """z^q mod p for the least quadratic non-residue z mod odd prime p,
    where p - 1 = q 2^s; Euler's criterion z^((p-1)/2) = -1 is read from
    z^q by s - 1 squarings."""
    z = 2
    while True:
        c = pow(z, q, p)
        if pow(c, (p - 1) // (2 * q), p) == p - 1:
            return c
        z += 1


def _unit_root_mod_prime(m: int, p: int) -> int | None:
    """One square root of a unit m mod odd prime p, or None if non-residue.

    Tonelli-Shanks (Shanks 1973) on a fixed schedule, with p - 1 = q 2^s:
    y = m^((q-1)/2) gives x = m y and t = x y, so x^2 = m t.  m is a
    residue iff t^(2^(s-1)) = 1 (Euler's criterion).  Then for
    i = s-1, ..., 1, with c = z^(q 2^(s-1-i)) of order 2^(i+1): when
    t^(2^(i-1)) != 1, x <- x c and t <- t c^2, so t^(2^(i-1)) = 1 after
    the step.  t = 1 at the end.  s = 1 is the direct power m^((p+1)/4).
    """
    q, s = _two_adic(p)
    y = pow(m, (q - 1) // 2, p)
    x = m * y % p
    t = x * y % p
    if pow(t, 1 << (s - 1), p) != 1:
        return None
    if s > 1:
        c = _nonresidue_power(p, q)
        for i in range(s - 1, 0, -1):
            if pow(t, 1 << (i - 1), p) != 1:
                x = x * c % p
                t = t * c * c % p
            c = c * c % p
    return x


def _unit_roots_mod_2power(m: int, gamma: int) -> List[int]:
    """All roots of an odd m modulo 2^gamma."""
    mod = 1 << gamma
    m %= mod
    if gamma == 1:
        return [1]
    if gamma == 2:
        return [1, 3] if m == 1 else []
    if m % 8 != 1:
        return []
    # lift a root from mod 8 upward: x -> x or x + 2^(k-1) works mod 2^(k+1)
    x = 1
    for k in range(3, gamma):
        if (x * x - m) % (1 << (k + 1)) != 0:
            x += 1 << (k - 1)
    return sorted({x % mod, (-x) % mod, (x + mod // 2) % mod, (-x + mod // 2) % mod})


def _unit_roots_mod_odd_prime_power(m: int, p: int, gamma: int) -> List[int]:
    """All roots of a unit m modulo p^gamma, p odd."""
    x = _unit_root_mod_prime(m % p, p)
    if x is None:
        return []
    # Hensel, as in _hensel_roots: the root of m mod p^(k+1) is x + t p^k
    # with t = -((x^2 - m) / p^k) (2x)^-1 mod p, and x stays x mod p
    inv2x = mod_inverse(2 * x, p)
    pk = p
    for _ in range(gamma - 1):
        x += -((x * x - m) // pk) * inv2x % p * pk
        pk *= p
    return sorted((x, pk - x))


def _sqrt_mod_prime_power(m: int, p: int, alpha: int) -> Tuple[int, ...]:
    """The sorted roots of m mod p^alpha, for the prime p and alpha >= 1
    of a FactoredModulus.

    m = 0 has exactly p^floor(alpha/2) roots.  Otherwise write
    m = m1 * p^beta with (m1, p) = 1: solvable only for even beta with m1
    a square modulo p^(alpha-beta), and the roots are the scaled lifts
    p^(beta/2) * (x + t * p^(alpha-beta)).  A bare tuple, not a RootSet:
    sqrt_mod_all validates only the recombined roots.
    """
    q = p ** alpha
    m %= q
    if m == 0:
        return tuple(range(0, q, p ** ((alpha + 1) // 2)))
    beta = 0
    m1 = m
    while m1 % p == 0:
        m1 //= p
        beta += 1
    if beta % 2 != 0:
        return ()
    gamma = alpha - beta
    if p == 2:
        base = _unit_roots_mod_2power(m1, gamma)
    else:
        base = _unit_roots_mod_odd_prime_power(m1, p, gamma)
    half = p ** (beta // 2)
    pg = p ** gamma
    return tuple(sorted(half * (x + t * pg) for x in base for t in range(half)))


def sqrt_mod_all(m: int, r: int) -> RootSet:
    """All square roots of m modulo r, via CRT over the prime powers of r.

    m and r are read through operator.index, so a numpy integer counts as
    the int it holds and a float raises TypeError.  r < 1 is refused here,
    on every call; the roots come from _sqrt_mod_all, a memo of at most
    256 entries keyed on the integers (m mod r, r), so m, m + r and m - r
    share one entry and a hit does not factorize r.  The RootSet returned
    is the cached object itself: it is frozen and holds a tuple, so
    callers share it safely.
    """
    if type(m) is not int or type(r) is not int:  # _as_int, off the hot path
        m, r = _as_int(m), _as_int(r)
    if r < 1:
        raise ValueError("sqrt_mod_all requires r >= 1")
    return _sqrt_mod_all(m % r, r)


@lru_cache(maxsize=256)
def _sqrt_mod_all(m: int, n: int) -> RootSet:
    """sqrt_mod_all for a residue 0 <= m < n, n factorized by
    arith.factorize, which refuses n > 2^63; a refusal is never cached.

    Each prime power q_i contributes its roots x scaled by the CRT
    idempotent e_i of FactoredModulus.crt_idempotents, and the
    combined roots are the sums over one root per factor, reduced mod n.
    Only the result is validated: k^2 = m (mod n) implies the congruence
    mod every q_i, and CRT is a bijection, so the combined roots are
    distinct exactly when each factor's roots are.
    """
    fm = factorize(n)
    partial: List[Tuple[int, ...]] = []
    for p, a in fm.factors:
        roots = _sqrt_mod_prime_power(m, p, a)
        if not roots:
            return RootSet(n, m, ())
        partial.append(roots)
    combos = [0]
    for roots, e in zip(partial, fm.crt_idempotents):
        combos = [v + x * e for v in combos for x in roots]
    return RootSet(n, m, tuple(sorted(v % n for v in combos)))


def root_pairs(r: int) -> np.ndarray:
    """All (m, k) with k^2 = m (mod r), as an (r, 2) array sorted by (m, k)
    in the signed dtype _residue_dtype(r), int32 while r <= 46340, int64
    above, column-major, so that each column is contiguous.

    Built by the definition: every k in [0, r) is squared mod r, and the
    rows are sorted once, as one key m*r + k.  Each square and each key
    is below r^2, so every step runs in that dtype, whose rule refuses
    r^2 >= 2^63 before any array is built, and the columns are written
    as key // r and key - (key // r) r.  There are exactly r pairs since
    every k is a root of exactly one m.  Neither r's factors nor the
    solver are used: criterion 1 checks the array solver against these
    tables.  r is read through operator.index, as in sqrt_mod_all.
    """
    r = _as_int(r)
    if r < 1:
        raise ValueError("root_pairs requires r >= 1")
    dtype = _residue_dtype(r, "r")
    k = np.arange(r, dtype=dtype)
    key = _mod(k * k, r)
    key *= r
    key += k
    key.sort()
    pairs = np.empty((r, 2), dtype=dtype, order="F")
    m, k = pairs[:, 0], pairs[:, 1]
    np.floor_divide(key, r, out=m)
    np.multiply(m, r, out=k)
    np.subtract(key, k, out=k)
    return pairs


#: smallest array that _mod reduces as a - a // p * p; below it the
#: three numpy calls cost more than one %
_MOD_MIN_SIZE = 512


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a % p for an integer array a and an int p >= 1: for arrays of at
    least _MOD_MIN_SIZE entries as a - a // p * p in one temporary.

    numpy's // by a scalar divides with a precomputed reciprocal, which
    its % does not, so this form is the faster one on long arrays.
    a // p * p may wrap for a near the dtype's minimum; the difference is
    then taken mod 2^bits as well, so the result, which lies in [0, p),
    is exact.
    """
    if a.size < _MOD_MIN_SIZE:
        return a % p
    q = a // p
    q *= p
    return np.subtract(a, q, out=q)


def _residue_dtype(n: int, name: str = "n", unsigned: bool = False) -> type:
    """The dtype of the numpy residue kernels mod n, once n is refused
    unless n**2 < 2**63: 32 bits while n**2 < 2**31 (n <= 46340), 64 above.

    Signed (int32, int64) for kernels that form a product of two residues,
    or a difference of two such products; unsigned (uint32, uint64) for
    kernels that add two products, whose sum stays below 2^32 or 2^64.
    The refusal names n as `name`.  The rule squares the int
    operator.index(n), so a numpy integer n cannot wrap it."""
    n = _as_int(n)
    if n * n >= 2 ** 63:
        raise ValueError(f"{name} = {n} too large: {name}^2 must be < 2^63 "
                         "for exact int64 arithmetic")
    if n * n < 2 ** 31:
        return np.uint32 if unsigned else np.int32
    return np.uint64 if unsigned else np.int64


def _vec_pow_mod(base: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise base**e mod p by square-and-multiply (p**2 < 2**63, e >= 0)."""
    if e < 0:
        raise ValueError(f"exponent e = {e} must be >= 0")
    _residue_dtype(p, "p")  # the refusal only: the powers keep base's dtype
    result = np.full_like(base, 1 % p)
    b = _mod(base, p)
    while e:
        if e & 1:
            result = _mod(result * b, p)
        e >>= 1
        if e:  # no square past the exponent's top bit
            b = _mod(b * b, p)
    return result


def _vec_unit_root_mod_prime(m: np.ndarray, p: int) -> np.ndarray:
    """One root of each entry of m mod odd prime p, -1 for non-residues
    and multiples of p.

    The schedule of _unit_root_mod_prime over an array: c is one Python
    int per step, and only the x, t update is masked.
    """
    q, s = _two_adic(p)
    y = _vec_pow_mod(m, (q - 1) // 2, p)
    x = _mod(m * y, p)
    t = _mod(x * y, p)
    residue = _vec_pow_mod(t, 1 << (s - 1), p) == 1
    if s > 1:
        c = _nonresidue_power(p, q)
        for i in range(s - 1, 0, -1):
            flip = _vec_pow_mod(t, 1 << (i - 1), p) != 1
            x = np.where(flip, _mod(x * c, p), x)
            t = np.where(flip, _mod(t * (c * c % p), p), t)
            c = c * c % p
    return np.where(residue, x, -1)


def _hensel_roots(m: np.ndarray, x: np.ndarray, p: int,
                  gamma: int) -> np.ndarray:
    """Both roots mod p^gamma of each unit m, odd p, from its root x mod p:
    the lifted roots, then their negatives.

    The root of m mod p^(k+1) is x + t p^k with
    t = -((x^2 - m) / p^k) (2x)^-1 mod p; m may be any representative
    below p^gamma, and every product stays below p^(2 gamma).
    """
    if gamma > 1:
        inv2x = _vec_pow_mod(_mod(2 * x, p), p - 2, p)
        pk = p
        for _ in range(gamma - 1):
            x = x + _mod(-((x * x - m) // pk) * inv2x, p) * pk
            pk *= p
    return np.concatenate([x, p ** gamma - x])


def _two_adic_roots(m: np.ndarray, gamma: int) -> np.ndarray:
    """The four roots mod 2^gamma (gamma >= 3) of each m = 1 mod 8, in
    four blocks: x, -x, x + 2^(gamma-1) and 2^(gamma-1) - x.

    The case analysis of _unit_roots_mod_2power, with the lift from mod 8
    (x -> x or x + 2^(k-1) works mod 2^(k+1)) run on every m at once.
    """
    pg = 1 << gamma
    x = np.ones_like(m)
    for k in range(3, gamma):
        x += np.where(_mod(x * x - m, 1 << (k + 1)) != 0, 1 << (k - 1), 0)
    half = pg // 2
    return np.concatenate([x, pg - x, _mod(x + half, pg), _mod(half - x, pg)])


def _unit_residue_roots(w: np.ndarray, p: int,
                        gamma: int) -> Tuple[np.ndarray, np.ndarray]:
    """(i, x) for every root x mod p^gamma of every unit w[i], for w in
    [0, p^gamma); the non-units of w get no roots here.

    Odd p: _vec_unit_root_mod_prime, which reads every multiple of p as a
    non-residue, and _hensel_roots.  p = 2: 1 is the root of every unit
    mod 2 and 1, 3 are those of 1 mod 4; above, _two_adic_roots of every
    w = 1 mod 8.
    """
    if p != 2:
        # a w longer than p reads its roots mod p from a table of all p
        u = _mod(w, p)
        x = (_vec_unit_root_mod_prime(np.arange(p, dtype=w.dtype), p)[u]
             if w.size > p else _vec_unit_root_mod_prime(u, p))
        i = np.flatnonzero(x >= 0)
        return np.tile(i, 2), _hensel_roots(w[i], x[i], p, gamma)
    if gamma >= 3:
        i = np.flatnonzero(_mod(w, 8) == 1)
        return np.tile(i, 4), _two_adic_roots(w[i], gamma)
    i = np.flatnonzero(_mod(w, 1 << gamma) == 1)
    return np.tile(i, gamma), np.repeat(
        np.arange(1, 1 << gamma, 2, dtype=w.dtype), i.size)


def _prime_power_residue_roots(v: np.ndarray, p: int,
                               a: int) -> Tuple[np.ndarray, np.ndarray]:
    """(t, k) for every root k mod p^a of every v[t] in [0, p^a), unordered:
    the array analogue of _sqrt_mod_prime_power, and the one numpy solver
    of prime powers.  t and k have v's dtype, which must hold (p^a)^2
    and v.size: int64 from _residue_roots, and _residue_dtype(p^a) from
    criterion 1's check against root_pairs, int32 at every p^a <= 10^4.

    v = w p^beta, w a unit and beta even, has the roots
    p^(beta/2) x + s p^(a-beta/2) for every root x of w mod p^(a-beta)
    (_unit_residue_roots) and 0 <= s < p^(beta/2).  Each pass over beta
    divides the residues that p^2 divides by p^2, so an odd beta drops
    out, and what is left at the end is v = 0, with the roots s p^ceil(a/2).
    """
    q = p ** a
    t, w = np.arange(v.size, dtype=v.dtype), v
    ts, ks = [], []
    for beta in range(0, a, 2):
        half = p ** (beta // 2)
        i, x = _unit_residue_roots(w, p, a - beta)
        ts.append(np.repeat(t[i], half))
        ks.append((half * x[:, None] + np.arange(0, q, q // half,
                                                 dtype=v.dtype)).ravel())
        deeper = np.flatnonzero(_mod(w, p * p) == 0)
        t, w = t[deeper], w[deeper] // (p * p)
    step = p ** ((a + 1) // 2)
    ts.append(np.repeat(t, q // step))
    ks.append(np.tile(np.arange(0, q, step, dtype=v.dtype), t.size))
    return np.concatenate(ts), np.concatenate(ks)


def _matching_pairs(ta: np.ndarray, tb: np.ndarray,
                    size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, ib) of every pair with ta[i] == tb[ib], for owners
    in [0, size) and tb ascending: each i is repeated once per element of
    its owner's run in tb, and ib runs through that run."""
    sizes = np.bincount(tb, minlength=size)
    reps = sizes[ta]
    ends = np.cumsum(reps)
    starts = (np.cumsum(sizes) - sizes)[ta]
    total = int(ends[-1]) if ends.size else 0
    return (np.repeat(np.arange(ta.size), reps),
            np.repeat(starts - ends + reps, reps) + np.arange(total))


def _residue_roots(v: np.ndarray, fm: FactoredModulus
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """(t, k) for every root k mod n of every residue v[t] in [0, n),
    ordered by t: sqrt_mod_all over an int64 array, n^2 < 2^63.

    Each prime power q_i of n contributes the roots of v mod q_i from the
    array solver _prime_power_residue_roots, sorted stably by t for
    _matching_pairs, and scaled by its CRT idempotent e_i; each
    (t, partial root) pair is matched with every root of v[t] mod q_i,
    so a residue with no root mod some q_i drops out.  Each scaled root
    is below n, so the running sums stay below omega(n) n < n^2 until
    the final reduction.
    """
    n = fm.n
    t = np.arange(v.size)
    k = np.zeros(v.size, dtype=np.int64)
    for (p, a), e in zip(fm.factors, fm.crt_idempotents):
        tq, kq = _prime_power_residue_roots(_mod(v, p ** a), p, a)
        order = np.argsort(tq, kind="stable")
        i, iq = _matching_pairs(t, tq[order], v.size)
        t, k = t[i], k[i] + _mod(kq * e, n)[order[iq]]
    return t, _mod(k, n)


def _array_multiset(low: int, R: int, j: int, h: int | None,
                    fm: FactoredModulus) -> Tuple[np.ndarray, np.ndarray]:
    """The multiset for m in (low, R] from one _residue_roots pass over the
    residues jm (plain kind) or the 2 (R - low) residues jm and j(m+h)
    (difference kind), n^2 < 2^63.  Each k is a root of exactly one m, so
    the plain keys are the sorted roots, each counted once; the
    difference kind pairs each root k of jm with every root kt of j(m+h)
    and counts the differences kt - k mod n by np.unique."""
    n, size = fm.n, R - low
    m = np.arange(low + 1, R + 1, dtype=np.int64)
    if h is not None:
        m = np.concatenate([m, m + h % n])
    t, k = _residue_roots(_mod(_mod(m, n) * (j % n), n), fm)
    if h is None:
        k.sort()
        return k, np.ones_like(k)
    split = np.searchsorted(t, size)
    i, it = _matching_pairs(t[:split], t[split:] - size, size)
    keys, counts = np.unique(_mod(k[split:][it] - k[i], n), return_counts=True)
    return keys, counts.astype(np.int64)


#: smallest top rung R_L at which the fast builder solves each increment's
#: residues in one numpy pass (_array_multiset); below it numpy's fixed
#: cost per call exceeds the per-m solver's memo hits, as on criterion 3's
#: grid (R <= 8), and the per-m loop runs
_ARRAY_MIN_R = 32


def _rungs(Rs: Sequence[int], r: int) -> Tuple[int, ...]:
    """The rungs Rs as ints (through operator.index), refused unless
    1 <= R_1 < ... < R_L <= r."""
    # _as_int inline; a list first, since a tuple built from an iterator
    # of unknown length parks every freed one on CPython's tuple free list
    Rs = tuple([int(operator.index(R)) for R in Rs])
    if not Rs or not all(map(operator.lt, Rs, Rs[1:])):
        raise ValueError("need rungs R_1 < ... < R_L, at least one")
    if Rs[0] < 1 or Rs[-1] > r:
        raise ValueError("need 1 <= R <= r")
    return Rs


def build_root_multiset_ladder(
    Rs: Sequence[int],
    j: int,
    r: int,
    h: int | None = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The root multisets for m in [1, R] at every rung R of the ladder
    Rs, 1 <= R_1 < ... < R_L <= r, as their increments: entry i is the
    multiset for m in (R_{i-1}, R_i] (R_0 = 0), as int64 arrays (keys,
    counts), so the sum of entries 0..i is the multiset at R_i.

    h decides the kind.  With h None the plain multiset counts the roots
    lam of j*m:
        count(lam) = #{m in [1,R] : lam^2 = j*m (mod r)};
    with an integer h the difference multiset counts the differences
    kt - k between roots of j(m+h) and jm:
        count(lam) = #{(m,k,kt) : 1<=m<=R, k^2=jm, kt^2=j(m+h),
                                  kt-k = lam (mod r)}.
    For both kinds each increment's keys are the residues lam in [0, r)
    with count(lam) >= 1 in its range of m, strictly ascending, and
    counts holds their counts; an empty increment is two empty arrays.
    R, j, r and h are read through operator.index, so a numpy integer
    counts as its int and a float raises TypeError.

    The regime is chosen once, by the top rung, and each increment is
    built by that regime's one-multiset code, so each residue jm, and
    j(m+h), is solved once for m <= R_L, and r is served far beyond any
    table.  When R_L >= _ARRAY_MIN_R and r^2 < 2^63, r is factorized once
    and each increment is solved in one numpy pass (_array_multiset over
    _residue_roots: array Tonelli-Shanks, Hensel and 2-adic lifts per
    prime power, CRT idempotents); otherwise the per-m loop calls
    sqrt_mod_all per m, through its memo, takes the roots of each m as
    they are (plain) or pairs the k of m with the kt of m + h
    (difference), counts the residues in a dict and sorts its keys once
    per increment.  Its oracle is oracles.root_multiset, one rung at a
    time.
    """
    j, r = _as_int(j), _as_int(r)
    h = None if h is None else _as_int(h)
    Rs = _rungs(Rs, r)
    if math.gcd(j, r) != 1:
        raise ValueError("need gcd(j, r) = 1")
    if Rs[-1] >= _ARRAY_MIN_R and r * r < 2 ** 63:
        fm = factorize(r)
        return [_array_multiset(low, R, j, h, fm)
                for low, R in zip((0,) + Rs, Rs)]
    parts = []
    for low, R in zip((0,) + Rs, Rs):
        table: Dict[int, int] = {}
        for m in range(low + 1, R + 1):
            lams = sqrt_mod_all(j * m % r, r).roots
            if h is not None and lams:
                kts = sqrt_mod_all(j * (m + h) % r, r).roots
                lams = [(kt - k) % r for k in lams for kt in kts]
            for lam in lams:
                table[lam] = table.get(lam, 0) + 1
        keys = sorted(table)
        parts.append((np.array(keys, dtype=np.int64),
                      np.array([table[k] for k in keys], dtype=np.int64)))
    return parts


def build_root_multiset(
    R: int,
    j: int,
    r: int,
    h: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The root multiset for m in [1, R], as int64 arrays (keys, counts):
    the one-rung call of build_root_multiset_ladder, whose docstring
    defines both kinds (h None: plain, an integer h: difference), the
    format and the two regimes.  Its oracle is oracles.root_multiset.
    """
    return build_root_multiset_ladder((R,), j, r, h)[0]
