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

Ladders: energy_e2_e4_ladder(Rs, ...) and energy_f2_ladder(Rs, ...)
return the reports at every rung of R_1 < ... < R_L, and energy_e2,
energy_e4, energy_e2_e4 and energy_f2 are their one-rung calls, which
run the passes above and nothing more.  Past one rung the fast side
builds once (sqrtmod.build_root_multiset_ladder, each rung's increment)
and certifies the top rung's mass before any work.  Then one levelled
pass forms each pair of the top rung's multiset once and adds its weight
at row (rung of its later element) and column (sum mod r) of an L x r
int64 array; the rows, cumulated, are every rung's histogram, whose
square sums are E2.  E4's second pass is levelled the same way over the
rows' increments.  Where a levelled pass does not apply (L r >
_DENSE_BINS, sparse bins or the transform), each rung runs the pass
above on its own multiset.  The brute side runs the oracle rung by rung.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .arith import is_prime
from .oracles import pair_energies, root_multiset
from .sqrtmod import _rungs, build_root_multiset_ladder

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
    dense, length = _regime(lam.size, r)
    if dense:
        h = None if length is None else _transform_bins(lam, cnt, r, length)
        if h is None:
            h = np.zeros(r, dtype=np.int64)
            for sums, weights in _pair_blocks(lam, cnt, r):
                np.add.at(h, sums, weights)
        return None, h
    minus_r = np.int64(-r)
    keys = h = np.zeros(0, dtype=np.int64)
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for sums, weights in _pair_blocks(lam, cnt, r):
        sums -= (sums >> 63) & minus_r  # s < 0 becomes s + r
        pending.append((sums, weights))
        size += sums.size
        if size >= max(_BLOCK, keys.size):
            keys, h = _merge_bins([(keys, h)] + pending)
            pending, size = [], 0
    return _merge_bins([(keys, h)] + pending) if pending else (keys, h)


def _regime(size: int, r: int) -> Tuple[bool, int | None]:
    """How _self_convolve bins the pair sums of `size` keys mod r, as
    (dense, length): dense bins while r is at most _DENSE_BINS and no
    larger than the pair count size^2 (or one block), else sparse ones;
    length is the transform length L (the least power of 2 >= 2r - 1)
    when dense pairs outnumber _TRANSFORM_PAIRS_PER_BIN times it, else
    None (the pair blocks)."""
    pairs = size * size
    if r > min(_DENSE_BINS, max(_BLOCK, pairs)):
        return False, None
    length = 1 << (2 * r - 2).bit_length()
    return True, (length if pairs > _TRANSFORM_PAIRS_PER_BIN * length
                  else None)


def _pair_blocks(lam: np.ndarray, cnt: np.ndarray, r: int,
                 rung: np.ndarray | None = None) -> Iterator[Tuple[np.ndarray, ...]]:
    """The blocks of pair sums of _self_convolve, each formed when read:
    (sums, weights), every sum lam[a] + (lam[b] - r) in [-r, r), and with
    `rung` (one rung per key) also rows, max(rung[a], rung[b]), the rung
    of the pair's later element.  One block of every ordered pair when
    it covers lam; otherwise the rows [i, i + step) meet the columns
    i.., and a column past the block carries the doubled weight."""
    step = max(1, _BLOCK // max(1, lam.size))
    shifted = lam + np.int64(-r)
    if step >= lam.size:
        spans = [(slice(None), 0, cnt)] if lam.size else []
    else:
        twice = cnt << 1
        spans = ((slice(i, i + step), i,
                  np.concatenate((cnt[i:i + step], twice[i + step:])))
                 for i in range(0, lam.size, step))
    for rows, i, columns in spans:
        sums = np.add.outer(lam[rows], shifted[i:]).ravel()
        weights = np.multiply.outer(cnt[rows], columns).ravel()
        if rung is None:
            yield sums, weights
        else:
            yield sums, weights, np.maximum.outer(rung[rows], rung[i:]).ravel()


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


def _square_sum(h: np.ndarray, total: int) -> int | List[int]:
    """Sum of h^2 over nonnegative int64 bins h whose sum is total, exactly;
    for a stack of such rows (2-D h), each summing to at most total, the
    list of the rows' sums.

    sum(h^2) <= max(h) * total, so an int64 dot cannot wrap when total^2
    (a test free of numpy calls) or max(h) * total is below 2^63;
    otherwise the squares are summed as Python ints.
    """
    if total * total < 2 ** 63 or int(h.max()) * total < 2 ** 63:
        return (int(np.dot(h, h)) if h.ndim == 1
                else np.einsum("ij,ij->i", h, h).tolist())
    if h.ndim == 1:
        return sum(c * c for c in h.tolist())
    return [sum(c * c for c in row) for row in h.tolist()]


def _certify(mass: int, fold: int) -> None:
    """Refuse a multiset of this mass unless mass^fold < 2^63, which bounds
    every count, weight and bin of either method, so int64 never wraps."""
    if mass ** fold >= 2 ** 63:
        raise ValueError(f"multiset mass = {mass} too large: mass^{fold} must "
                         "be < 2^63 for exact int64 energies")


def _energies_from_bins(keys: np.ndarray | None, h: np.ndarray, mass: int,
                        r: int, fold: int) -> Tuple[int, ...]:
    """(E2,) for fold 2, (E2, E4) for fold 4, of a multiset of the given
    mass from the bins (keys, h) of its first pass (keys None: dense);
    E4 convolves the nonzero bins once more."""
    if fold == 2:
        return (_square_sum(h, mass ** 2),)
    if keys is None:
        keys = np.flatnonzero(h)
        h = h[keys]
    return (_square_sum(h, mass ** 2),
            _square_sum(_self_convolve(keys, h, r)[1], mass ** 4))


def _energy_from_multiset(keys: np.ndarray, counts: np.ndarray, r: int,
                          fold: int, method: str) -> Tuple[int, ...]:
    """(E2,) for fold 2 (pair sums), (E2, E4) for fold 4 (and quadruple
    sums from E2's nonzero bins), of the multiset build_root_multiset
    returns: int64 keys strictly ascending in [0, r) and their int64 counts.

    The certificate mass^fold < 2^63 is required before any work; the
    mass is summed as Python ints, so a wrapping int64 sum of the counts
    cannot pass the test.  Method conv self-convolves, brute enumerates
    (oracles.pair_energies).
    """
    mass = sum(counts.tolist())
    _certify(mass, fold)
    if method == "brute":
        return pair_energies(keys, counts, r, fold)
    return _energies_from_bins(*_self_convolve(keys, counts, r), mass, r, fold)


def _levelled_bins(lam: np.ndarray, cnt: np.ndarray, rung: np.ndarray,
                   r: int, levels: int) -> np.ndarray | None:
    """The dense pair-sum bins of every rung at once, as a levels x r
    int64 array, or None where this levelled pass does not apply:
    levels * r > _DENSE_BINS, or _regime puts the pairs of lam in sparse
    bins or the transform.  Each pair of (lam, cnt) is formed once, and
    its weight is added at the row of its later element's rung and the
    column of its sum mod r (a negative sum s indexes r + s).  So the
    rows, cumulated, give each rung's histogram: row i the pairs whose
    elements both lie at rungs <= i.  Every entry is at most the top
    rung's bin, which the caller certifies."""
    if levels * r > _DENSE_BINS or _regime(lam.size, r) != (True, None):
        return None
    h = np.zeros((levels, r), dtype=np.int64)
    for sums, weights, rows in _pair_blocks(lam, cnt, r, rung):
        np.add.at(h, (rows, sums), weights)
    return h


def _ladder_energies(parts: Sequence[Tuple[np.ndarray, np.ndarray]], r: int,
                     fold: int) -> List[Tuple[int, ...]]:
    """The conv energies at every rung of a ladder, from the increments
    (keys, counts) that build_root_multiset_ladder returns.

    One rung is _energy_from_multiset's pass.  Past one, the certificate
    is checked once, at the top rung's mass, before any work.  The
    increments, concatenated with each key's rung, take one levelled pass
    (_levelled_bins); E2 is each cumulated row's square sum.  E4's second
    pass is levelled the same way over the rows' increments, the nonzero
    entries of the levelled bins, each at its own row.  Where a levelled
    pass does not apply, each rung runs _self_convolve on its own
    multiset: the increments merged so far, or for E4 the nonzero bins
    of its row.
    """
    if len(parts) == 1:
        return [_energy_from_multiset(*parts[0], r, fold, "conv")]
    sizes = [k.size for k, _ in parts]
    cnt = np.concatenate([c for _, c in parts])
    prefix = list(itertools.accumulate(cnt.tolist(), initial=0))
    masses = [prefix[end] for end in itertools.accumulate(sizes)]
    _certify(masses[-1], fold)
    levels = len(parts)
    raw = _levelled_bins(np.concatenate([k for k, _ in parts]), cnt,
                         np.repeat(np.arange(levels), sizes), r, levels)
    if raw is None:
        cumulative = itertools.accumulate(parts, lambda a, b: _merge_bins([a, b]))
        return [_energies_from_bins(*_self_convolve(*multiset, r), mass, r, fold)
                for multiset, mass in zip(cumulative, masses)]
    bins = np.cumsum(raw, axis=0)
    e2 = _square_sum(bins, masses[-1] ** 2)
    if fold == 2:
        return [(e,) for e in e2]
    rows, keys = np.nonzero(raw)
    raw = _levelled_bins(keys, raw[rows, keys], rows, r, levels)
    if raw is None:
        e4 = [_square_sum(_self_convolve(nonzero, h[nonzero], r)[1], mass ** 4)
              for h, mass in zip(bins, masses)
              for nonzero in [np.flatnonzero(h)]]
    else:
        e4 = _square_sum(np.cumsum(raw, axis=0), masses[-1] ** 4)
    return list(zip(e2, e4))


def _energies(Rs: Sequence[int], j: int, h: int | None, r: int, fold: int,
              method: str) -> List[Tuple[int, ...]]:
    """The energies at every rung R of Rs of the plain multiset (h None)
    or the difference multiset of h.  Method conv reads one ladder of the
    fast builder; brute reads the oracle builder oracles.root_multiset,
    which factorizes nothing, rung by rung."""
    if method == "conv":
        return _ladder_energies(build_root_multiset_ladder(Rs, j, r, h), r, fold)
    if method == "brute":
        return [_energy_from_multiset(*root_multiset(R, j, r, h), r, fold, method)
                for R in _rungs(Rs, r)]
    raise ValueError(f"unknown method {method!r}")


def _e2_report(R: int, j: int, r: int, energy: int, method: str) -> EnergyReport:
    """The E2 report of one rung R, with its hypothesis bound."""
    return EnergyReport("E2", R, j, None, r, energy, R ** 4 / r + R ** 2, method)


def energy_e2(R: int, j: int, r: int, method: str = "conv") -> EnergyReport:
    """Quadruples (k1..k4) with ki^2 = j*mi, mi in [1,R], k1+k2 = k3+k4 mod r."""
    (e,), = _energies((R,), j, None, r, 2, method)
    return _e2_report(R, j, r, e, method)


def energy_e2_e4_ladder(Rs: Sequence[int], j: int, r: int,
                        method: str = "conv"
                        ) -> List[Tuple[EnergyReport, EnergyReport]]:
    """(energy_e2, energy_e4) at every rung R of the ladder Rs,
    1 <= R_1 < ... < R_L <= r, from one build and one first pass."""
    return [(_e2_report(R, j, r, e2, method),
             EnergyReport("E4", R, j, None, r, e4, R ** 8 / r + R ** 4, method))
            for R, (e2, e4) in zip(Rs, _energies(Rs, j, None, r, 4, method))]


def energy_e2_e4(R: int, j: int, r: int, method: str = "conv"
                 ) -> Tuple[EnergyReport, EnergyReport]:
    """energy_e2 and energy_e4 from one build and one first pass."""
    return energy_e2_e4_ladder((R,), j, r, method)[0]


def energy_e4(R: int, j: int, r: int, method: str = "conv") -> EnergyReport:
    """8-tuple analogue of energy_e2 (4-vs-4 sums)."""
    return energy_e2_e4(R, j, r, method)[1]


def energy_f2_ladder(Rs: Sequence[int], j: int, h: int, r: int,
                     method: str = "conv") -> List[EnergyReport]:
    """energy_f2 at every rung R of the ladder Rs, 1 <= R_1 < ... < R_L
    <= r, from one build and one first pass."""
    hr = math.gcd(h, r)
    return [EnergyReport("F2", R, j, h, r, e, hr * R ** 4 / r + R ** 2, method)
            for R, (e,) in zip(Rs, _energies(Rs, j, h, r, 2, method))]


def energy_f2(R: int, j: int, h: int, r: int, method: str = "conv") -> EnergyReport:
    """Additive energy of root differences f(m) = sqrt(j(m+h)) - sqrt(jm)."""
    return energy_f2_ladder((R,), j, h, r, method)[0]


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

