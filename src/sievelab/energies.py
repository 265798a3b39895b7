"""Exact additive energies E2, E4, F2 of modular square roots.

Fast path: cyclic self-convolution of the root multiset's sparse count
vector in int64 numpy, in blocks of pair sums, once for E2/F2 and once
more on the nonzero bins for E4 (energy_e2_e4 reads E2 from the same
first pass).  Once the pairs outgrow one block, each
unordered pair is formed once: a row block meets only the columns from
its own start on, and a column past the block stands for both orders of
its pair, so its weight is doubled.  A doubled weight is at most the bin
it lands in, which holds both orders, so it cannot wrap where the bin
does not.  Each pair sum is formed as lam[a] + (lam[b] - r), which lies
in [-r, r) and so fits int64 for every r <= 2^63 with no division.  The
bins are a dense histogram, indexed by these sums directly, only while r
is small next to the pair count; otherwise they stay sparse and sorted,
so neither time nor memory grows with r.  Dense bins whose pairs exceed
_TRANSFORM_PAIRS_PER_BIN times the transform length L (the power of 2
>= 2r - 1) come from one float64 rfft/irfft self-convolution instead,
in O(r log r), rounded to int64 and folded mod r.  It runs only when
Percival's rounding bound puts every bin's error below 1/4 (else the
pair blocks run), and every transformed result must have nonnegative
bins summing exactly to (sum of counts)^2, or it raises.  The sum of
squared bins is one int64 dot whenever max(h) * sum(h) < 2^63 certifies
it, and Python ints otherwise.  Oracle path (method "brute"):
oracles.root_multiset squares every residue, and oracles.pair_energies
enumerates every ordered pair sum densely into r bins, which the
squaring bounds by refusing r > 2^20 first.  Both read the multiset as
sorted int64 (keys, counts) and return exact integers; before either
runs, the certificate mass^fold < 2^63 (mass = number of roots counted
with multiplicity) bounds every bin, and so every int64 count and
weight (doubled ones included), so none can wrap.  r is an int, passed
through as given: only the fast builder factorizes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import is_prime
from .oracles import pair_energies, root_multiset
from .sqrtmod import build_root_multiset

#: pair sums per block of the fast convolution (about 1 MB of int64 temporaries)
_BLOCK = 1 << 16
#: largest dense histogram of the fast convolution (8 MB of int64)
_DENSE_BINS = 1 << 20
#: the dense bins come from one transform of length L, not from pair
#: blocks, once the pair count exceeds this many pairs per transform bin
_TRANSFORM_PAIRS_PER_BIN = 16


@dataclass(frozen=True)
class EnergyReport:
    kind: str  # E2 | E4 | F2
    R: int
    j: int
    h: int | None
    r: int
    energy: int
    hyp_bound: float
    method: str

    @property
    def ratio(self) -> float:
        return self.energy / self.hyp_bound if self.hyp_bound > 0 else float("inf")


def _self_convolve(lam: np.ndarray, cnt: np.ndarray,
                   r: int) -> Tuple[np.ndarray | None, np.ndarray]:
    """Bins (keys, h) of the cyclic self-convolution, keys ascending: h[k] =
    sum of cnt[a] * cnt[b] over lam[a] + lam[b] = keys[k] (mod r), int64.
    Sparse bins are the nonzero ones; dense bins are all r, keys None.

    Exact when every bin fits int64; callers certify that.  lam holds
    residues in [0, r), r <= 2^63.  When one block of rows covers lam,
    it forms every ordered pair.  Otherwise the row block [i, i + rows)
    meets only the columns i.., so each unordered pair is formed once:
    inside the block's own square a pair keeps its weight cnt[a] * cnt[b]
    (both orders appear there), and a column past the block stands for
    both orders, so its weight is 2 * cnt[a] * cnt[b].  That doubled
    weight is at most the bin it lands in, which holds both orders, so no
    weight wraps where the bins do not.  Each block's rows are added to
    lam - r, so every pair sum s lies in [-r, r) and fits int64; r itself
    is never converted to int64 (2^63 does not fit, -2^63 does).  A dense
    histogram of length r is used only when r is at most _DENSE_BINS and
    no larger than the pair count (or one block); it takes s as an index
    unreduced, since numpy reads a negative index s as r + s, which is
    (a + b) mod r.  Dense bins come from a transform instead of pair
    blocks when the pairs outnumber _TRANSFORM_PAIRS_PER_BIN times the
    transform length and its rounding bound holds (_transform_bins),
    and then no block is formed.  Otherwise each block adds r back to
    its negative sums, and pending sums are merged into the sorted bins
    whenever they outnumber them.
    """
    minus_r = np.int64(-r)
    shifted = lam + minus_r
    rows = max(1, _BLOCK // max(1, lam.size))
    if rows >= lam.size:  # one block of every ordered pair, formed when read
        blocks = ((np.add.outer(lam, shifted).ravel(),
                   np.multiply.outer(cnt, cnt).ravel()) for _ in lam[:1])
    else:  # each unordered pair once: rows [i, i + rows) meet columns i..
        twice = cnt << 1
        blocks = ((np.add.outer(lam[i:i + rows], shifted[i:]).ravel(),
                   np.multiply.outer(cnt[i:i + rows], np.concatenate(
                       (cnt[i:i + rows], twice[i + rows:]))).ravel())
                  for i in range(0, lam.size, rows))
    if r <= min(_DENSE_BINS, max(_BLOCK, lam.size * lam.size)):
        length = 1 << (2 * r - 2).bit_length()  # least power of 2 >= 2r - 1
        h = (_transform_bins(lam, cnt, r, length)
             if lam.size * lam.size > _TRANSFORM_PAIRS_PER_BIN * length
             else None)
        if h is None:
            h = np.zeros(r, dtype=np.int64)
            for sums, weights in blocks:
                np.add.at(h, sums, weights)
        return None, h
    keys = h = np.zeros(0, dtype=np.int64)
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for sums, weights in blocks:
        sums -= (sums >> 63) & minus_r  # s < 0 becomes s + r
        pending.append((sums, weights))
        size += sums.size
        if size >= max(_BLOCK, keys.size):
            keys, h = _merge_bins([(keys, h)] + pending)
            pending, size = [], 0
    return _merge_bins([(keys, h)] + pending) if pending else (keys, h)


def _transform_error_bound(norm2: float, length: int) -> float:
    """Percival's bound (Math. Comp. 72, 2003, Thm 5.1; Brent and
    Zimmermann, Modern Computer Arithmetic, Thm 3.3.2) on every bin's
    error of the float64 FFT self-convolution of a vector x with
    ||x||_2^2 = norm2, of a power-of-2 length 2^n:
    norm2 * ((1 + e)^(3n) (1 + e sqrt 5)^(3n + 1) (1 + b)^(3n) - 1), with
    e = 2^-53 the unit roundoff and b the twiddle factors' error.  It
    assumes b <= 2^-52 (one ulp at 1), above the sqrt(2) 2^-53 of
    correctly rounded twiddles.  The product is formed as expm1 of a sum
    of log1p, since 1 + e rounds to 1.
    """
    n = length.bit_length() - 1
    e, b = 2.0 ** -53, 2.0 ** -52
    return norm2 * math.expm1(3 * n * (math.log1p(e) + math.log1p(b))
                              + (3 * n + 1) * math.log1p(e * math.sqrt(5)))


def _transform_bins(lam: np.ndarray, cnt: np.ndarray, r: int,
                    length: int) -> np.ndarray | None:
    """The dense int64 bins of _self_convolve by one float64 transform of
    the given power-of-2 length >= 2r - 1, or None when its rounding bound
    does not put every bin's error below 1/4 (then the pair blocks run).

    The counts are placed at lam in a float64 vector x of length r; rfft,
    a square and irfft give the linear self-convolution z, of length
    2r - 1, with no wrap.  Rounding needs an error below 1/2, so the bound
    of 1/4 keeps a factor 2 for numpy's transform, which is pocketfft's
    mixed-radix real FFT rather than the radix-2 complex one the bound is
    proved for.  The bound also caps every bin (each is at most ||x||^2)
    far below 2^53, so every count and bin is an exact float64.  After
    the transform, z is rounded to int64 and checked: every bin >= 0, and
    the bins sum exactly to (sum of cnt)^2, summed in 32-bit halves so the
    int64 sums cannot wrap.  A failed check raises ArithmeticError; it
    never falls back.  z[r:] then folds onto z[:r - 1], the wrap mod r.
    numpy.fft is read here, so it is imported on first use only.
    """
    x = np.zeros(r)
    x[lam] = cnt
    if _transform_error_bound(float(np.dot(x, x)), length) >= 0.25:
        return None
    f = np.fft.rfft(x, length)
    z = np.rint(np.fft.irfft(f * f, length)[:2 * r - 1]).astype(np.int64)
    total = int(cnt.sum()) ** 2
    if int(z.min()) < 0 or (
            (int(np.sum(z >> 32)) << 32) + int(np.sum(z & 0xFFFFFFFF)) != total):
        raise ArithmeticError(
            f"transform self-convolution at r = {r} failed its exact check: "
            f"bins must be >= 0 and sum to {total}")
    z[:r - 1] += z[r:]
    return z[:r]


def _merge_bins(parts: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum the weights of equal keys over several (keys, weights) parts."""
    keys = np.concatenate([k for k, _ in parts])
    weights = np.concatenate([w for _, w in parts])
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(weights, starts) if starts.size else weights


def _square_sum(h: np.ndarray, total: int) -> int:
    """Sum of h^2 over nonnegative int64 bins h whose sum is total, exactly.

    sum(h^2) <= max(h) * total, so an int64 dot cannot wrap when total^2
    (a test free of numpy calls) or max(h) * total is below 2^63;
    otherwise the squares are summed as Python ints.
    """
    if total * total < 2 ** 63 or int(h.max()) * total < 2 ** 63:
        return int(np.dot(h, h))
    return sum(c * c for c in h.tolist())


def _energy_from_multiset(keys: np.ndarray, counts: np.ndarray, r: int,
                          fold: int, method: str) -> Tuple[int, ...]:
    """(E2,) for fold 2 (pair sums), (E2, E4) for fold 4 (and quadruple
    sums from E2's nonzero bins), of the multiset build_root_multiset
    returns: int64 keys strictly ascending in [0, r) and their int64 counts.

    Every count, weight and bin of either method is at most mass^fold, so
    mass^fold < 2^63 is required before any work and int64 never wraps;
    the mass is summed as Python ints, so a wrapping int64 sum of the
    counts cannot pass the test.  Method conv self-convolves, brute
    enumerates (oracles.pair_energies).
    """
    mass = sum(counts.tolist())
    if mass ** fold >= 2 ** 63:
        raise ValueError(f"multiset mass = {mass} too large: mass^{fold} must "
                         "be < 2^63 for exact int64 energies")
    if method == "brute":
        return pair_energies(keys, counts, r, fold)
    keys, h = _self_convolve(keys, counts, r)
    if fold == 2:
        return (_square_sum(h, mass ** 2),)
    if keys is None:
        keys = np.flatnonzero(h)
        h = h[keys]
    return (_square_sum(h, mass ** 2),
            _square_sum(_self_convolve(keys, h, r)[1], mass ** 4))


def _energy(R: int, j: int, h: int | None, r: int, fold: int,
            method: str) -> Tuple[int, ...]:
    """The energies of the plain multiset (h None) or the difference
    multiset of h.  Method conv reads the fast builder, brute the oracle
    builder oracles.root_multiset, which factorizes nothing."""
    if method not in ("conv", "brute"):
        raise ValueError(f"unknown method {method!r}")
    build = build_root_multiset if method == "conv" else root_multiset
    return _energy_from_multiset(*build(R, j, r, h), r, fold, method)


def energy_e2(R: int, j: int, r: int, method: str = "conv") -> EnergyReport:
    """Quadruples (k1..k4) with ki^2 = j*mi, mi in [1,R], k1+k2 = k3+k4 mod r."""
    e, = _energy(R, j, None, r, 2, method)
    return EnergyReport("E2", R, j, None, r, e, R ** 4 / r + R ** 2, method)


def energy_e2_e4(R: int, j: int, r: int, method: str = "conv"
                 ) -> Tuple[EnergyReport, EnergyReport]:
    """energy_e2 and energy_e4 from one build and one first pass."""
    e2, e4 = _energy(R, j, None, r, 4, method)
    return (EnergyReport("E2", R, j, None, r, e2, R ** 4 / r + R ** 2, method),
            EnergyReport("E4", R, j, None, r, e4, R ** 8 / r + R ** 4, method))


def energy_e4(R: int, j: int, r: int, method: str = "conv") -> EnergyReport:
    """8-tuple analogue of energy_e2 (4-vs-4 sums)."""
    return energy_e2_e4(R, j, r, method)[1]


def energy_f2(R: int, j: int, h: int, r: int, method: str = "conv") -> EnergyReport:
    """Additive energy of root differences f(m) = sqrt(j(m+h)) - sqrt(jm)."""
    e, = _energy(R, j, h, r, 2, method)
    hr = math.gcd(h, r)
    return EnergyReport("F2", R, j, h, r, e, hr * R ** 4 / r + R ** 2, method)


def kssz_check(r: int, j: int, R: int) -> Dict[str, float]:
    """E2 against the prime-modulus theorem bracket, eps = 0.

    Constant-tracking monitor; the theorem's implied constant is not
    explicit, so the ratio is reported, never asserted.
    """
    if not is_prime(r):
        raise ValueError("kssz_check requires prime r")
    e2 = energy_e2(R, j, r).energy
    b2 = (R ** 1.5 / r ** 0.5 + 1) * R ** 2
    return {"r": r, "j": j, "R": R, "e2": e2, "e2_bound": b2, "e2_ratio": e2 / b2}

