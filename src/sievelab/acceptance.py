"""The ten acceptance criteria, runnable as suites.

Suites: oracles (1-3), identities (4, 5, 8), constants (6, 7, 9),
monitors (10).  Monitors only report ratios and never fail.

Every criterion reports through one path: its body returns (passed,
detail), and the @_criterion(number, name, monitor) decorator times the
body, builds the CriterionResult and enters the criterion in CRITERIA
under its number, so no body names its number, its name or a clock.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .arith import FactoredModulus, factorize, is_prime
from .charsums import (S4Input, TrigWeight, s4_closed, s4_closed_rows,
                       s4_direct, weighted_energy)
from .charsums import _pair_sum_table
from .energies import energy_e2_e4, energy_f2, kssz_check
from .expsums import (RationalFunctionModP, esum_jh, gauss_sum_closed,
                      gauss_sum_direct, gcal, gcal_bound, rational_expsum)
from .oracles import (gcal_literal, gcd_power_sum, ls_lhs_literal,
                      rational_literal)
from .sieve import SieveInstance, double_sieve_check, ls_lhs, px_monitor
from .sqrtmod import root_pairs, sqrt_mod_all
from .sqrtmod import _prime_power_residue_roots, _residue_dtype


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    monitor: bool
    detail: str
    elapsed_s: float

    @property
    def line(self) -> str:
        status = ("REPORT" if self.monitor
                  else "PASS" if self.passed else "FAIL")
        return (f"[{status}] criterion {self.number} ({self.name}): "
                f"{self.detail} [{self.elapsed_s:.1f}s]")


#: every criterion by its number, entered by @_criterion
CRITERIA: Dict[int, Callable[..., CriterionResult]] = {}


def _criterion(number: int, name: str, monitor: bool = False):
    """Decorate a criterion body returning (passed, detail) into a function
    with the same parameters that returns the timed CriterionResult, and
    enter it in CRITERIA as criterion `number`."""
    def decorate(body: Callable[..., Tuple[bool, str]]
                 ) -> Callable[..., CriterionResult]:
        @functools.wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            return CriterionResult(number, name, passed, monitor, detail,
                                   time.perf_counter() - t0)
        CRITERIA[number] = run
        return run
    return decorate


def _sqrt_spot_calls(rng: np.random.Generator, r_max: int,
                     sample: int) -> Iterator[Tuple[int, int]]:
    """Criterion 1's (m, r) spot calls, drawn as they are read: up to 40
    m for each fixed modulus, then `sample` random (m, r)."""
    for r in [1, 2, 3, 4, 8, 9, 16, 72, 97, 360, 1024, 5040, 9973, r_max]:
        for m in rng.integers(0, r, size=min(r, 40)):
            yield int(m), r
    for _ in range(sample):
        r = int(rng.integers(1, r_max + 1))
        yield int(rng.integers(0, r)), r


@_criterion(1, "sqrt oracle")
def criterion_1_sqrt_oracle(r_max: int = 10 ** 4, sample: int = 2000):
    """The square-root tables and solver against squaring.

    For every r <= r_max, root_pairs(r) is checked by property: r rows,
    k^2 mod r = m in every row (which pins m to [0, r)), the k a
    permutation of [0, r) (which pins k to [0, r)), and the rows strictly
    increasing in (m, k).  With m and k in [0, r), that order is the
    order of the key m r + k, so the last check is that the key strictly
    increases.  root_pairs squares every residue, so at every prime
    power r <= r_max the array solver sqrtmod._prime_power_residue_roots
    is checked against it: its pairs over all r residues, sorted by the
    key m r + k, must be the table's keys.  sqrt_mod_all is checked by
    about 2,300 spot calls (fixed moduli, then `sample` random (m, r))
    against exhaustive squaring.  The two solvers run the same
    Tonelli-Shanks schedule at odd primes, scalar and over arrays.
    """
    prime_powers = {p ** a: (p, a) for p, a in _prime_powers(r_max)}
    for r in range(1, r_max + 1):
        rp = root_pairs(r)
        if rp.shape != (r, 2):
            return False, f"r={r}: {rp.shape[0]} pairs, expected {r}"
        m, k = rp[:, 0], rp[:, 1]
        # k^2 - floor(k^2 / r) r is k^2 mod r, written here rather than
        # read from the fast paths' sqrtmod._mod
        s = k * k
        s -= s // r * r
        invalid = s != m
        if invalid.any():
            bad = rp[invalid][0]
            return False, f"invalid pair m={bad[0]} k={bad[1]} r={r}"
        # a negative k squares like k + r, and bincount refuses it
        if k.min() < 0 or not np.all(np.bincount(k, minlength=r) == 1):
            return False, f"r={r}: root table is not a permutation"
        # m and k now lie in [0, r), so the key orders rows as (m, k) does
        key = m * r + k
        if not (key[1:] > key[:-1]).all():
            return False, f"r={r}: rows not strictly increasing in (m, k)"
        if r in prime_powers:
            t, ks = _prime_power_residue_roots(
                np.arange(r, dtype=_residue_dtype(r, "r")), *prime_powers[r])
            if not np.array_equal(np.sort(t * r + ks), key):
                return False, f"r={r}: array solver pairs != root_pairs"
    checked = 0
    for m, r in _sqrt_spot_calls(np.random.default_rng(20260823), r_max,
                                 sample):
        ks = np.arange(r, dtype=np.int64)
        if sqrt_mod_all(m, r).roots != tuple(ks[ks * ks % r == m]):
            return False, f"sqrt_mod_all mismatch at m={m} r={r}"
        checked += 1
    return True, f"all r <= {r_max}, every m; {checked} direct spot calls"


@_criterion(2, "root counts")
def criterion_2_root_counts(q_max: int = 10 ** 4):
    """#roots(0 mod p^alpha) = p^floor(alpha/2) for every prime power <= q_max."""
    tested = 0
    for p, alpha in _prime_powers(q_max):
        got = len(sqrt_mod_all(0, p ** alpha).roots)
        want = p ** (alpha // 2)
        if got != want:
            return False, f"p={p} alpha={alpha}: {got} != {want}"
        tested += 1
    return True, f"{tested} prime powers"


@_criterion(3, "energy oracle")
def criterion_3_energy_oracle(r_max: int = 60, R_max: int = 8):
    """conv and brute energies agree exactly on the full small grid; each
    side reads E2 and E4 from one energy_e2_e4 call."""
    compared = 0
    for r in range(1, r_max + 1):
        for j in range(1, r + 1):
            if math.gcd(j, r) != 1:
                continue
            for R in range(1, min(R_max, r) + 1):
                pairs = list(zip(energy_e2_e4(R, j, r, "conv"),
                                 energy_e2_e4(R, j, r, "brute")))
                for h in (0, 1, 2):
                    pairs.append((energy_f2(R, j, h, r, "conv"),
                                  energy_f2(R, j, h, r, "brute")))
                for a, b in pairs:
                    compared += 1
                    if a.energy != b.energy:
                        return False, (f"{a.kind} mismatch r={r} j={j} R={R} "
                                       f"h={a.h}: {a.energy} != {b.energy}")
    return True, f"{compared} exact integer comparisons"


def _gauss_draws(rng: np.random.Generator, q_max: int,
                 extra: int) -> Iterator[Tuple[int, int, int, bool]]:
    """Criterion 4's (q, a, b, unit) checks, drawn as they are read: for
    each odd q <= q_max a closed-form check, then a unit a (unit True);
    then `extra` closed-form checks at random odd q."""
    for q in range(1, q_max + 1, 2):
        yield q, int(rng.integers(0, q)), int(rng.integers(0, q)), False
        a = int(rng.integers(1, q + 1))
        while math.gcd(a, q) != 1:
            a = int(rng.integers(1, q + 1))
        yield q, a, int(rng.integers(0, q)), True
    for _ in range(extra):
        q = int(rng.integers(0, q_max // 2)) * 2 + 1
        yield q, int(rng.integers(0, q)), int(rng.integers(0, q)), False


@_criterion(4, "Gauss closed form")
def criterion_4_gauss(q_max: int = 3000, extra: int = 1000):
    """Closed-form Gauss sums match direct sums; |G| = sqrt(q) for units."""
    tested = 0
    for q, a, b, unit in _gauss_draws(np.random.default_rng(4), q_max, extra):
        d = gauss_sum_direct(q, a, b).value
        if unit:
            # a unit coefficient: the absolute value must be exactly sqrt(q)
            if abs(abs(d) - math.sqrt(q)) > 1e-9 * q:
                return False, (f"q={q} a={a} b={b}: ||G|-sqrt(q)|="
                               f"{abs(abs(d) - math.sqrt(q))}")
        else:
            c = gauss_sum_closed(q, a, b).value
            if abs(d - c) > 1e-6:
                return False, f"q={q} a={a} b={b}: |direct-closed|={abs(d - c)}"
        tested += 1
    return True, f"{tested} comparisons"


def _prime_powers(limit: int) -> Iterator[Tuple[int, int]]:
    """(p, alpha) for every prime power p^alpha <= limit, by p, then alpha."""
    for p in range(2, limit + 1):
        if is_prime(p):
            alpha = 1
            while p ** alpha <= limit:
                yield p, alpha
                alpha += 1


def _gcal_draw(rng: np.random.Generator,
               q: int) -> Tuple[int, int, int, int, int, int]:
    """gcal's (a, b, k, u, j, s) mod q, drawn in this order: a, b, k, u in
    [0, q), then j, s in [1, q)."""
    a, b, k, u = (int(rng.integers(0, q)) for _ in range(4))
    return a, b, k, u, int(rng.integers(1, q)), int(rng.integers(1, q))


@_criterion(5, "appendix algebra")
def criterion_5_appendix(pairs: int = 1000, pp_max: int = 10 ** 4,
                         esum_rmax: int = 500):
    """G multiplicativity, the prime-power bound with constant 12, the
    paired = bare identity for the root-difference sum, and gcal against
    its oracle oracles.gcal_literal at every odd q <= 301, within 1e-9 q,
    at the fixed (a, b, j, k, u, s) = (1, 2, 1, 3, 4, 1)."""
    rng = np.random.default_rng(5)
    done = 0
    while done < pairs:
        q1 = int(rng.integers(1, 100)) * 2 + 1
        q2 = int(rng.integers(1, 100)) * 2 + 1
        if math.gcd(q1, q2) != 1:
            continue
        q = q1 * q2
        a, b, k, u, j, s = _gcal_draw(rng, q)
        if math.gcd(j * s, q) != 1:
            continue
        lhs = gcal(q, a, b, j, k, u, s).value
        rhs = (gcal(q1, a, b, j, k, u, s * q2).value
               * gcal(q2, a, b, j, k, u, s * q1).value)
        if abs(lhs - rhs) > 1e-6:
            return False, (f"multiplicativity fails at q1={q1} q2={q2} "
                           f"a={a} b={b} j={j} k={k} u={u} s={s}")
        done += 1
    bound_checked = 0
    for q in sorted(p ** alpha for p, alpha in _prime_powers(pp_max) if p > 2):
        for _ in range(2):
            a, b, k, u, j, s = _gcal_draw(rng, q)
            if math.gcd(j * s, q) != 1:
                continue
            v = abs(gcal(q, a, b, j, k, u, s).value)
            if v > gcal_bound(q, a, b, k, u) + 1e-6:
                return False, (f"bound (constant 12) fails at q={q} a={a} "
                               f"b={b} k={k} u={u}: {v}")
            bound_checked += 1
    for r in range(1, esum_rmax + 1):
        l = int(rng.integers(0, r))
        n = int(rng.integers(0, r))
        h = int(rng.integers(0, 3))
        j = 1 + int(rng.integers(0, r))
        while math.gcd(j, r) != 1:
            j = 1 + int(rng.integers(0, r))
        p = esum_jh(l, n, j, h, r, form="paired").value
        bq = esum_jh(l, n, j, h, r, form="bare").value
        if abs(p - bq) > 1e-9 * r:
            return False, f"paired != bare at r={r} l={l} n={n} j={j} h={h}"
    for q in range(1, 302, 2):
        v = gcal(q, 1, 2, 1, 3, 4, 1).value
        if abs(v - gcal_literal(q, 1, 2, 1, 3, 4, 1)) > 1e-9 * q:
            return False, f"gcal != gcal_literal at q={q}: {v}"
    return True, (f"{done} multiplicativity pairs, {bound_checked} bound "
                  f"checks, paired=bare for r <= {esum_rmax}")


def _totient_sum(Q: int, square: bool) -> int:
    """sum over q <= Q of phi(d_q), d_q = q or q^2 (phi(q^2) = q phi(q)),
    with phi(q) counted by math.gcd: the diagonal weight of ls_lhs."""
    return sum((q if square else 1)
               * sum(math.gcd(a, q) == 1 for a in range(1, q + 1))
               for q in range(1, Q + 1))


@_criterion(6, "sieve constants")
def criterion_6_sieve_constants(instances: int = 1000):
    """Classical large sieve with constant exactly 1; double sieve slack >= 0.

    Every 20th classical instance also compares ls_lhs with its oracle,
    oracles.ls_lhs_literal, within 1e-9 of the diagonal term
    sum phi(d_q) ||a||^2, and so do its square moduli when Q <= 8.
    """
    rng = np.random.default_rng(6)
    for i in range(instances):
        N = int(rng.integers(1, 257))
        Q = int(rng.integers(1, 33))
        coeffs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        inst = SieveInstance(M=int(rng.integers(0, 1000)),
                             coefficients=tuple(coeffs), Q=Q)
        lhs = ls_lhs(inst, moduli="classical")
        Z = float(np.sum(np.abs(coeffs) ** 2))
        rhs = (Q * Q + N - 1) * Z
        if lhs > rhs * (1 + 1e-12):
            return False, (f"classical LS fails: instance {i} N={N} Q={Q} "
                           f"lhs={lhs} rhs={rhs}")
        if i % 20:
            continue
        for moduli in ("classical", "squares")[:2 if Q <= 8 else 1]:
            fast = ls_lhs(inst, moduli=moduli)
            literal = ls_lhs_literal(inst, moduli=moduli)
            diagonal = _totient_sum(Q, moduli == "squares") * Z
            if abs(fast - literal) > 1e-9 * diagonal:
                return False, (f"ls_lhs != ls_lhs_literal: instance {i} "
                               f"moduli={moduli} N={N} Q={Q} fast={fast} "
                               f"literal={literal}")
    for i in range(instances):
        na = int(rng.integers(1, 50))
        nb = int(rng.integers(1, 50))
        A = float(rng.uniform(0.1, 10))
        B = float(rng.uniform(0.1, 10))
        alphas = rng.uniform(-A, A, na)
        betas = rng.uniform(-B, B, nb)
        a = rng.standard_normal(na)
        b = rng.standard_normal(nb)
        res = double_sieve_check(alphas, a, betas, b, A, B)
        if res["slack"] < -1e-9:
            return False, (f"double sieve slack < 0: instance {i} "
                           f"slack={res['slack']}")
    return True, (f"{instances} classical + {instances} double-sieve "
                  "instances")


#: fixed corpus of rational functions (numerator, denominator), total
#: degree <= 6, reused across all primes in criterion 7
BOMBIERI_CORPUS: Sequence = (
    ((0, 1), (1,)), ((0, 0, 1, 1), (1,)), ((1, 2, 3), (1,)),
    ((0, 1, 0, 0, 1), (1,)), ((0, 0, 0, 0, 0, 1), (1,)),
    ((0, 1, 0, 0, 0, 0, 1), (1,)), ((3, 0, 0, 2), (1,)),
    ((1,), (0, 1)), ((1,), (1, 0, 1)), ((0, 1), (1, 1)),
    ((1, 1), (2, 0, 0, 1)), ((1,), (0, 0, 0, 1)),
    ((0, 0, 1), (1, 1, 1)), ((1, 0, 1), (0, 1)),
    ((5, 1), (1, 3)), ((0, 1, 1), (1, 0, 0, 0, 1)),
    ((1, 0, 0, 1), (0, 0, 1)), ((2, 1), (3, 0, 1)),
    ((0, 0, 0, 1, 1), (1, 2)), ((1, 1, 1, 1), (1, 0, 2)),
)


@_criterion(7, "Bombieri margin")
def criterion_7_bombieri(p_max: int = 2000):
    """|S(f,p)| <= 2 d_p(f) sqrt(p) over the fixed corpus, all p <= p_max;
    at p <= 101 rational_expsum is also compared with its oracle
    oracles.rational_literal, within 1e-9 p and with equal terms."""
    tested = 0
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        for num, den in BOMBIERI_CORPUS:
            try:
                f = RationalFunctionModP(num, den, p)
                v = rational_expsum(f)
            except ValueError:
                continue  # constant mod p or vanishing denominator
            if v.margin > 1 + 1e-12:
                return False, f"margin {v.margin} > 1 at p={p} f={num}/{den}"
            if p <= 101:
                want, terms = rational_literal(num, den, p)
                if abs(v.value - want) > 1e-9 * p or v.terms != terms:
                    return False, (f"rational_expsum != rational_literal at "
                                   f"p={p} f={num}/{den}: {v.value}")
            tested += 1
    return True, f"{tested} sums, margin <= 1"


@_criterion(8, "S4 closed form")
def criterion_8_s4(full_rs: Sequence[int] = (3, 5, 7, 11, 13),
                   sampled_rs: Sequence[int] = (17, 19, 23, 29, 31),
                   samples: int = 1000):
    """s4_closed = s4_direct on full sweeps and seeded samples; the two
    weighted-energy evaluation paths agree."""
    compared = 0
    for r in full_rs:
        pairs = [(a, b) for a in range(r) for b in range(r)]
        for j in (1, r - 1):
            # batch all r^4 direct values through the pair-sum tables
            tables = np.stack([_pair_sum_table(r, j, h1, h2)
                               for h1, h2 in pairs])
            direct = tables @ tables.T  # direct[(h1,h2),(h3,h4)]
            closed = np.fromiter(s4_closed_rows(j, r, (
                p12 + p34 for p12 in pairs for p34 in pairs)),
                complex, count=len(pairs) ** 2)
            bad = np.abs(closed.reshape(direct.shape) - direct) > 1e-9 * r ** 3
            if bad.any():
                # the first failing h in (h1, h2)-major scan order
                first = int(np.argmax(bad))
                i1, i2 = divmod(first, len(pairs))
                (h1, h2), (h3, h4) = pairs[i1], pairs[i2]
                return False, (f"r={r} j={j} h=({h1},{h2},{h3},{h4}): "
                               f"closed={complex(closed[first])} "
                               f"direct={direct[i1, i2]}")
            compared += len(closed)
    rng = np.random.default_rng(8)
    for _ in range(samples):
        r = int(rng.choice(sampled_rs))
        j = int(rng.integers(1, r))
        h = tuple(int(x) for x in rng.integers(0, r, 4))
        inp = S4Input(j, h, r)
        c = s4_closed(inp).value
        d = s4_direct(inp).value
        if abs(c - d) > 1e-9 * r ** 3:
            return False, f"sampled r={r} j={j} h={h}: closed={c} direct={d}"
        compared += 1
    energy_checks = 0
    for r in (5, 13, 31, 61):
        for width in (2, 3, 5):
            w = TrigWeight.fejer(width)
            for R in {1, r // 3, r - 1} - {0}:
                j = 1 + energy_checks % (r - 1)
                out = weighted_energy(R, j, r, w)
                if out["rel_error"] > 1e-6:
                    return False, (f"weighted energy paths differ: r={r} "
                                   f"R={R} width={width} "
                                   f"rel={out['rel_error']}")
                energy_checks += 1
    return True, (f"{compared} closed-vs-direct, {energy_checks} Poisson "
                  "identities")


def _gcd_row(fm: FactoredModulus, H: int) -> np.ndarray:
    """gcd(h, r) for h = 1..H as int64, r = fm.n: each divisor d <= H of r
    is written at the multiples of d in ascending order of d, so every h
    ends with the largest divisor of r that divides it."""
    divisors = [1]
    for p, a in fm.factors:
        divisors = [d * p ** i for d in divisors for i in range(a + 1)]
    g = np.empty(H, dtype=np.int64)
    for d in sorted(divisors):
        if d > H:
            break
        g[d - 1::d] = d
    return g


@_criterion(9, "gcd power sums")
def criterion_9_gcd_sums(H_max: int = 1000, r_max: int = 10 ** 4):
    """sum_{h<=H} gcd(h,r)^sigma <= H tau(r) for all H <= H_max, r <= r_max.

    The row gcd(h, r) and tau(r) both come from one factorization of r,
    and g^sigma is gathered at g from one table of d^sigma, d <= H_max.
    A row too small still passes every bound, so after the bounds each
    sum at H = H_max is compared with oracles.gcd_power_sum, to relative
    1e-12, at every r <= 100 and every 100th r."""
    hs = np.arange(1, H_max + 1, dtype=np.int64)
    powers = {sigma: np.arange(H_max + 1, dtype=np.float64) ** sigma
              for sigma in (0.2, 0.5)}
    for r in range(1, r_max + 1):
        fm = factorize(r)
        g = _gcd_row(fm, H_max)
        tau = fm.divisor_count()
        rhs = hs.astype(np.float64) * tau
        # sigma = 1 in exact integers, then the float sums with a tolerance
        sums = [(1, np.cumsum(g))] + [(sigma, np.cumsum(table[g]))
                                      for sigma, table in powers.items()]
        for sigma, s in sums:
            over = (s > hs * tau) if sigma == 1 else (s > rhs * (1 + 1e-12))
            if over.any():
                H = int(np.argmax(over)) + 1
                return False, f"sigma={sigma} fails at r={r} H={H}"
        if r <= 100 or r % 100 == 0:
            for sigma, s in sums:
                want = gcd_power_sum(H_max, r, sigma)
                if abs(float(s[-1]) - want) > 1e-12 * want:
                    return False, (f"sigma={sigma} sum at r={r} H={H_max}: "
                                   f"{float(s[-1])} != oracle {want}")
    return True, f"all H <= {H_max}, r <= {r_max}, sigma in (1/5, 1/2, 1)"


@_criterion(10, "monitors", monitor=True)
def criterion_10_monitors(prime_max: int = 2000, esum_rmax: int = 3000):
    """Non-failing ratio reports for the asymptotic results."""
    primes = [r for r in range(2, prime_max + 1) if is_prime(r)]
    h1 = h2 = h3 = 0.0
    e2theo = 0.0
    for r in primes:
        R = math.floor(r ** (1 / 3) + 1e-9)
        e2, e4 = energy_e2_e4(R, 1, r)
        h1, h2 = max(h1, e2.ratio), max(h2, e4.ratio)
        h3 = max(h3, energy_f2(R, 1, 1, r).ratio)
        e2theo = max(e2theo, kssz_check(r, 1, R)["e2_ratio"])
    esum_margin = 0.0
    for r in range(1, esum_rmax + 1, 2):
        esum_margin = max(esum_margin, esum_jh(1, 2, 1, 1, r).margin)
    px_lines = []
    for (Q, N) in ((8, 512), (10, 1000)):
        for x in (0.3, 1 / math.sqrt(2), math.pi / 6):
            mon = px_monitor(x, Q, N)
            px_lines.append(f"(Q={Q},N={N},x={x:.3f}) "
                            f"conj={mon.get('conj_ratio')} "
                            f"prev={mon.get('previous_ratio')} "
                            f"prop={mon.get('propmain_ratio')}")
    return True, (f"H1 max ratio {h1:.3f}, H2 {h2:.3f}, H3 {h3:.3f} "
                  f"(primes r <= {prime_max}, R = r^(1/3)); E2 theorem ratio "
                  f"{e2theo:.3f}; root-difference sum margin {esum_margin:.3f} "
                  f"(odd r <= {esum_rmax}); P(x): " + "; ".join(px_lines))


SUITES: Dict[str, Sequence[int]] = {
    "oracles": (1, 2, 3),
    "identities": (4, 5, 8),
    "constants": (6, 7, 9),
    "monitors": (10,),
    "all": tuple(range(1, 11)),
}


def run_suite(name: str) -> List[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [CRITERIA[n]() for n in SUITES[name]]
