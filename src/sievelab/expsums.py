"""Complete exponential sums: quadratic Gauss sums, the root-difference
sum E_{j,h}(l,n), the appendix sum G(q;a,b,j,k,u,s) and rational-function
sums modulo primes, each with its explicit-constant bound margin.

Every fast path reduces its phases exactly to integer residues t mod q
and gathers e_q(t) from one table, unit_phases(q), instead of calling
exp per term; _phase_sum adds the gathered values.  The table entries are
within a few ulp of e_q(t) whatever the modulus.  The closed Gauss sum
and the bare root-difference sum call the scalar oracles.e_frac instead;
esum_jh(form="bare") is oracles.esum_bare.  Every modulus is an int.

The units and inverses mod q come from two classical facts, not from
inverting anything: (Z/p^a)* is cyclic for an odd prime p, so
_unit_inverses(p^a) lists the powers g^t of its least generator and
their inverses g^-t = g^(phi - t); and for a composite q, _unit_pairs
combines its prime powers' tables with the CRT idempotents.

unit_phases, _unit_inverses and _inverse_table keep their tables in one
memo, _TABLES: the arrays are read-only and shared by every caller, the
least recently used table goes first, and all of them together hold at
most _TABLE_BUDGET bytes.  gcal keeps no table of a composite modulus,
which criterion 5 asks for once each.  A library caller releases the
tables with unit_phases.cache_clear().  The fast paths reduce arrays by
a scalar modulus through sqrtmod._mod.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .arith import eps_q, factorize, is_prime, jacobi, mod_inverse
from .oracles import e_frac, esum_bare
from .sqrtmod import (_fits_int32_square, _matching_pairs, _mod,
                      _require_int64_square, _residue_dtype, root_pairs)


#: bytes that the tables of _TABLES may hold together (4 MiB)
_TABLE_BUDGET = 2 ** 22

_TableInfo = namedtuple("TableInfo", "hits misses tables nbytes budget")


def _owned_nbytes(a: np.ndarray) -> int:
    """Bytes of the buffer that a (or the array it views) holds."""
    return (a if a.base is None else a.base).nbytes


class _TableMemo:
    """Read-only numpy tables keyed by (function, modulus), least recently
    used evicted first, all within _TABLE_BUDGET bytes (read on every
    call).  A table larger than the budget is returned and not kept.

    Decorating a function of q with the memo gives it lru_cache's
    cache_info() and cache_clear(): its own hits and misses, and the
    tables and bytes of the whole memo, which its functions share.
    cache_clear() empties the memo and resets every count.  A call with
    keep=False, for a table no later call is likely to read, returns a
    kept table but keeps none that it builds.
    """

    def __init__(self) -> None:
        self.tables: OrderedDict = OrderedDict()  # key -> (value, bytes)
        self.nbytes = 0
        self.counts: List[List[int]] = []  # [hits, misses] per function

    def clear(self) -> None:
        self.tables.clear()
        self.nbytes = 0
        for count in self.counts:
            count[:] = [0, 0]

    def __call__(self, build: Callable) -> Callable:
        count = [0, 0]
        self.counts.append(count)

        @functools.wraps(build)
        def cached(q: int, keep: bool = True):
            key = (build.__name__, q)
            kept = self.tables.get(key)
            if kept is not None:
                self.tables.move_to_end(key)
                count[0] += 1
                return kept[0]
            count[1] += 1
            value = build(q)
            arrays = value if isinstance(value, tuple) else (value,)
            sizes = {}  # by buffer: views of one buffer count it once
            for a in arrays:
                a.flags.writeable = False
                sizes[id(a if a.base is None else a.base)] = _owned_nbytes(a)
            size = sum(sizes.values())
            if keep and size <= _TABLE_BUDGET:
                while self.nbytes + size > _TABLE_BUDGET:
                    self.nbytes -= self.tables.popitem(last=False)[1][1]
                self.tables[key] = (value, size)
                self.nbytes += size
            return value

        cached.cache_info = lambda: _TableInfo(
            count[0], count[1], len(self.tables), self.nbytes, _TABLE_BUDGET)
        cached.cache_clear = self.clear
        return cached


_TABLES = _TableMemo()


@_TABLES
def unit_phases(q: int) -> np.ndarray:
    """Array of e_q(t) for t in [0, q), q >= 1.

    Built from 2 ceil(sqrt q) exponentials: with B = ceil(sqrt q) and
    t = aB + b (0 <= b < B), e_q(t) = e_q(aB) e_q(b), so the table is the
    flattened outer product of the two short rows cut to length q: q
    complex multiplies, each entry within a few ulp of e_q(t), and entry
    0 exactly 1.  The table is read-only and shared through _TABLES.
    """
    B = math.isqrt(q - 1) + 1
    low = np.exp(math.tau * 1j * (np.arange(B) / q))
    high = np.exp(math.tau * 1j * (np.arange(0, q, B) / q))
    return np.multiply.outer(high, low).ravel()[:q]


def _phase_sum(t: np.ndarray, q: int, keep: bool = True) -> complex:
    """Sum of e_q(t) over an int array t of residues in [0, q), read from
    unit_phases(q, keep=keep)."""
    return complex(unit_phases(q, keep=keep)[t].sum())


@dataclass(frozen=True)
class ExpSumValue:
    value: complex
    terms: int
    margin: float | None = None

    @property
    def abs(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class RationalFunctionModP:
    """f = f1/f2 with integer coefficient lists (ascending powers), prime p."""

    numerator: Tuple[int, ...]
    denominator: Tuple[int, ...]
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if all(c % self.p == 0 for c in self.denominator):
            raise ValueError("denominator vanishes identically mod p")

    def reduced(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return self._reduced

    @functools.cached_property
    def _reduced(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(f1, f2) mod p without trailing zeros, computed once per
        instance; not a field, so equality and hashing read the inputs."""
        return (tuple(_trim([c % self.p for c in self.numerator])),
                tuple(_trim([c % self.p for c in self.denominator])))

    def total_degree(self) -> int:
        f1, f2 = self.reduced()
        return max(len(f1) - 1, 0) + max(len(f2) - 1, 0)

    def is_constant(self) -> bool:
        f1, f2 = self.reduced()
        if not f1:
            return True
        if len(f1) != len(f2):
            return False
        lc1, lc2 = f1[-1], f2[-1]
        return all((c1 * lc2 - c2 * lc1) % self.p == 0 for c1, c2 in zip(f1, f2))


def _trim(coeffs: List[int]) -> List[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def gauss_sum_direct(q: int, a: int, b: int) -> ExpSumValue:
    """G(q;a,b) = sum_{n=1..q} e_q(a n^2 + b n), by literal summation.

    The phases are exact integer residues, summed through the unit_phases
    table: q^2 < 2^63 is required, so each product is below 2^63 and
    their sum, taken in uint64, below 2^64; when q^2 < 2^31 the same
    bounds hold in uint32, and the phases are taken there.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    _require_int64_square(q, "q")
    dtype = np.uint32 if _fits_int32_square(q) else np.uint64
    n = np.arange(1, q + 1, dtype=dtype)
    phases = _mod((a % q) * _mod(n * n, q) + (b % q) * n, q)
    return ExpSumValue(_phase_sum(phases, q), q)


def gauss_sum_closed(q: int, a: int, b: int) -> ExpSumValue:
    """Closed-form G(q;a,b) for odd q.

    0 when gcd(a,q) does not divide b; otherwise factor out d = gcd(a,q)
    and evaluate eps * e_q(-(4a)^-1 b^2) * (a/q) * sqrt(q) on the coprime
    part.
    """
    if q % 2 == 0 or q < 1:
        raise ValueError("closed form requires odd q")
    d = math.gcd(a, q)
    if d > 1:
        if b % d != 0:
            return ExpSumValue(0j, q)
        inner = gauss_sum_closed(q // d, a // d, b // d)
        return ExpSumValue(d * inner.value, q)
    inv4a = mod_inverse(4 * a, q)
    value = (eps_q(q) * e_frac(-inv4a * b * b, q) * jacobi(a, q) * math.sqrt(q))
    return ExpSumValue(value, q)


def esum_jh(
    l: int,
    n: int,
    j: int,
    h: int,
    r: int,
    form: str = "paired",
) -> ExpSumValue:
    """The complete root-difference sum over Z/rZ.

    paired: sum over (k, kt) mod r with kt^2 - k^2 = j*h of
            e_r(l(kt - k) + n * jbar * k^2).
    bare:   sum over a mod r and root pairs k^2 = ja, kt^2 = j(a+h) of
            e_r(l(kt - k) + n*a).
    The two are the same sum.  paired is the fast path: one vectorized
    pass over the bulk root table root_pairs(r), which needs r^2 < 2^63:
    sqrtmod._matching_pairs pairs each k with the run of roots kt of
    k^2 + jh, and the exact residue phases are summed through
    unit_phases(r).  It runs in the table's dtype, sqrtmod._residue_dtype
    (int32 while r^2 < 2^31, else int64), where every product of two
    residues fits.  bare is the oracle, oracles.esum_bare: it squares
    every k in [0, r) once (k grouped by j^-1 k^2, which refuses r > 2^20
    before any work), factorizes nothing, calls no solver, and adds one
    e_frac per term.
    Their computed values may differ in the last bits, since the terms are
    added in another order; terms is equal.
    margin is |value| / (r^{4/5} (h,r) (l,r)^{1/5}), eps = 0.
    """
    if form not in ("paired", "bare"):
        raise ValueError(f"unknown form {form!r}")
    if r < 1:
        raise ValueError("need r >= 1")
    if math.gcd(j, r) != 1:
        raise ValueError("need gcd(j, r) = 1")
    if form == "paired":
        pairs = root_pairs(r)
        jinv = mod_inverse(j, r)
        k = np.arange(r, dtype=_residue_dtype(r))
        # every kt with kt^2 = k^2 + jh, grouped by k; the k are gathered,
        # not taken from _matching_pairs' int64 indices, to keep their dtype
        ik, i = _matching_pairs(_mod(k * k + j * h % r, r), pairs[:, 0], r)
        k, kt = k[ik], pairs[i, 1]
        terms = k.size
        # each product is reduced mod r before adding, so nothing exceeds r^2
        phase = _mod(_mod(l % r * (kt - k), r)
                     + _mod(n * jinv % r * _mod(k * k, r), r), r)
        total = _phase_sum(phase, r)
    else:
        total, terms = esum_bare(l, n, j, h, r)
    hr = math.gcd(h, r)
    lr = math.gcd(l, r)
    bound = r ** 0.8 * hr * lr ** 0.2
    return ExpSumValue(total, terms, abs(total) / bound)


def _least_generator(p: int, a: int) -> int:
    """The least generator of the cyclic group (Z/p^a)*, p prime (a = 1
    when p = 2): the least g that is a primitive root mod p, tested on the
    primes l of p - 1 (g^((p-1)/l) != 1 mod p), and for a >= 2 also has
    g^(p-1) != 1 mod p^2, since such a g generates (Z/p^a)* for every a
    (Ireland and Rosen, A Classical Introduction to Modern Number Theory,
    ch. 4).  At p = 40487 the least primitive root 5 fails mod p^2, and
    the least generator mod p^a, a >= 2, is 10."""
    primes = [l for l, _ in factorize(p - 1).factors]
    return next(g for g in range(1, p ** a)
                if all(pow(g, (p - 1) // l, p) != 1 for l in primes)
                and (a == 1 or pow(g, p - 1, p * p) != 1))


@_TABLES
def _unit_inverses(q: int) -> Tuple[np.ndarray, np.ndarray]:
    """(g^t mod q, g^-t mod q) for t in [0, phi(q)), g the least generator
    of the cyclic group (Z/q)*, for q = 2 or q = p^a with p an odd prime:
    unsigned arrays, uint32 when q^2 < 2^31, uint64 otherwise.

    g is _least_generator(p, a).  The powers g^0, ..., g^phi are the
    flattened outer product of two rows of about sqrt(phi) powers, g^b
    and g^(kB), as in unit_phases; each product is of two residues, so it
    fits the dtype, and q^2 < 2^63 is required.
    The inverses g^-t = g^(phi - t) are the same array read backwards
    from g^phi = 1: one buffer, no inversion, scatter or sort.  Both
    arrays are read-only and shared through _TABLES.
    """
    _require_int64_square(q, "q")
    factors = factorize(q).factors
    if len(factors) != 1 or (q % 2 == 0 and q != 2):
        raise ValueError(f"q = {q} must be 2 or a power of an odd prime")
    (p, a), = factors
    g = _least_generator(p, a)
    phi = q - q // p
    B = math.isqrt(phi) + 1  # B^2 > phi, so the rows reach g^phi
    dtype = np.uint32 if _fits_int32_square(q) else np.uint64
    rows = []
    for step, size in ((g, B), (pow(g, B, q), phi // B + 1)):
        row = [1]
        while len(row) < size:
            row.append(row[-1] * step % q)
        rows.append(np.array(row, dtype=dtype))
    powers = _mod(np.multiply.outer(rows[1], rows[0]).ravel()[:phi + 1], q)
    return powers[:phi], powers[phi:0:-1]


def _unit_pairs(q: int) -> Tuple[np.ndarray, np.ndarray]:
    """(units, inverses) mod an odd q >= 1, the table gcal sums over:
    _unit_inverses(q) when q is a prime power, else the CRT outer sums of
    its prime powers' tables, built per call and never kept in _TABLES.

    With q_1 < q_2 < ... the prime powers of q and e_i their CRT
    idempotents, the units are sum_i c_i e_i mod q over every choice of
    c_i from _unit_inverses(q_i), the first index varying slowest, and
    sum_i c_i^-1 e_i is the inverse of each; q = 1 gives ([0], [0]).
    q^2 < 2^63 is refused before any table is built; each c_i e_i is
    below q^2 and each sum below 2q, so uint32 holds them while
    q^2 < 2^31, and uint64 above.
    """
    _require_int64_square(q, "q")
    fm = factorize(q)
    if len(fm.factors) == 1:
        return _unit_inverses(q)
    dtype = np.uint32 if _fits_int32_square(q) else np.uint64
    units = inverses = np.zeros(1, dtype=dtype)
    for qi, e in zip(fm.prime_powers, fm.crt_idempotents):
        c, ic = (_mod(t.astype(dtype) * dtype(e), q)
                 for t in _unit_inverses(qi))
        units = _mod(np.add.outer(units, c).ravel(), q)
        inverses = _mod(np.add.outer(inverses, ic).ravel(), q)
    return units, inverses


def gcal(q: int, a: int, b: int, j: int, k: int, u: int, s: int) -> ExpSumValue:
    """G(q;a,b,j,k,u,s): sum over reduced residues c mod q of
    e_q(a c + b (j k - u s^2 c^2)^2 / (4 j s^3 c^2)).

    Odd q only; requires gcd(js, q) = 1 and q^2 < 2^63 (refused before any
    array is built).  q = 1 returns the single term 1.  Expanding the
    square, the phase is a c + A c^-2 + C c^2 + D mod q with
    B = b (4 j s^3)^-1, A = B (jk)^2, C = B u^2 s^4 and D = -2 B jk u s^2
    reduced as Python ints; the terms run over _unit_pairs(q), in
    generator order for a prime power and CRT order otherwise, in its
    unsigned dtype (uint32 when q^2 < 2^31, else uint64), where each sum
    of two products below q^2 cannot wrap, and the residue phases are
    summed through unit_phases(q), kept in _TABLES only for a prime power.
    tests/test_expsums.py checks it against oracles.gcal_literal, a
    scalar sum with pow(c, -1, q) and e_frac per term.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q % 2 == 0:
        raise ValueError("gcal handles odd q only")
    if math.gcd(j * s, q) != 1:
        raise ValueError("need gcd(js, q) = 1")
    c, ic = _unit_pairs(q)
    B = b * mod_inverse(4 * j * s ** 3, q)
    jk, us2 = j * k, u * s * s
    A, C, D = B * jk * jk % q, B * us2 * us2 % q, -2 * B * jk * us2 % q
    phase = _mod(_mod(a % q * c + A * _mod(ic * ic, q), q)
                 + C * _mod(c * c, q) + D, q)
    prime_power = len(factorize(q).factors) == 1
    return ExpSumValue(_phase_sum(phase, q, keep=prime_power), len(c))


def gcal_bound(q: int, a: int, b: int, k: int, u: int) -> float:
    """Prime-power bound 12 q^{4/5} gcd(b u^2, a, b k^2, q)^{1/5}."""
    g = math.gcd(math.gcd(b * u * u, a), math.gcd(b * k * k, q))
    return 12 * q ** 0.8 * g ** 0.2


@_TABLES
def _inverse_table(p: int) -> np.ndarray:
    """c^-1 mod p at index c in [1, p), and 0 at index 0, for a prime p:
    one scatter of _unit_inverses(p), which it does not keep, in
    sqrtmod._residue_dtype(p), the dtype of rational_expsum's residues.
    Read-only, shared through _TABLES."""
    units, inverses = _unit_inverses(p, keep=False)
    table = np.zeros(p, dtype=_residue_dtype(p))
    table[units] = inverses
    return table


def rational_expsum(f: RationalFunctionModP) -> ExpSumValue:
    """S(f,p) over n mod p with f2(n) != 0; margin against 2 d_p(f) sqrt(p).

    The phases f1(n) f2(n)^-1 are exact residues mod p (p^2 < 2^63),
    summed through unit_phases(p).  f1 and f2 are evaluated by Horner's
    rule in sqrtmod._residue_dtype(p), int32 while p^2 < 2^31 and int64
    above, and each inverse is read from _inverse_table(p) at f2(n)."""
    if f.is_constant():
        raise ValueError("bound requires f nonconstant mod p")
    p = f.p
    _require_int64_square(p, "p")
    f1, f2 = f.reduced()
    ns = np.arange(p, dtype=_residue_dtype(p))
    v1 = _poly_eval_mod(f1, ns, p)
    v2 = _poly_eval_mod(f2, ns, p)
    keep = v2 != 0
    phase = _mod(v1[keep] * _inverse_table(p)[v2[keep]], p)
    value = _phase_sum(phase, p)
    bound = 2 * f.total_degree() * math.sqrt(p)
    return ExpSumValue(value, int(keep.sum()), abs(value) / bound)


def _poly_eval_mod(coeffs: Sequence[int], xs: np.ndarray, p: int) -> np.ndarray:
    """The polynomial with coefficients in [0, p), ascending, at every
    residue of xs mod p, in xs's dtype, which must hold p^2."""
    out = np.zeros_like(xs)
    for c in reversed(coeffs):
        out = _mod(out * xs + c, p)
    return out
