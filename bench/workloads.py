"""Seeded input generation for the three workloads.

Only numpy and the standard library are used here: the program under
test sees the generated inputs, never the generator.  Every generated
input meets the documented preconditions (R <= r, gcd(j, r) = 1, odd q
for closed forms), so a failure counts against the program.

Sizes are drawn by stratified sampling: a parameter range (or a sorted
candidate pool) is cut into as many equal strata as there are draws, and
one value is drawn from each.  Every seed then covers the whole range
with the same cost profile, so run-to-run spread measures the program,
not the luck of the draw.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

WORKLOADS = ("queries", "scan-energy", "accept")

#: scan grids: E4 on odd r in [2000, 6000] with R = 48 (R^2 >~ r), E2 and
#: F2 (h = 1) on r in [5e4, 1e5] with R = 600; j = 1 throughout
E4_RANGE, E4_R = (2000, 6000), 48
E2F2_RANGE, E2F2_R = (50_000, 100_000), 600
#: moduli per omega class (omega = 1, 2, 3) and grid
SCAN_PER_CLASS = 2
#: explicit scan budget, far above any generated grid's declared cost
#: (r * R^4 for E4, r * R^2 for E2/F2, summed over the grid)
SCAN_BUDGET = 10 ** 15

#: queries per pass for each operation of the closed-loop stream
QUERY_COUNTS = {
    "sqrt_small": 490,    # r <= 1e5, checked against exhaustive squaring
    "sqrt_mid": 200,      # r in [1e5, 1e9]
    "sqrt_large": 45,     # r near 1e12: primes, balanced and unbalanced semiprimes
    "gauss_direct": 160,
    "gauss_closed": 200,
    "gcal": 40,           # a fresh odd q <= 4e4 per call
    "esum_jh": 50,
    "energy_e2": 100,
    "energy_f2": 100,
    "s4_closed": 400,
    "px_monitor": 100,
    "ls_lhs": 120,        # square moduli
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (generator-side)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def omega_table(limit: int) -> np.ndarray:
    """omega[n] = number of distinct prime factors of n, for n <= limit."""
    omega = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if omega[p] == 0:
            omega[p::p] += 1
    return omega


def stratified_ints(rng: np.random.Generator, lo: int, hi: int, n: int) -> List[int]:
    """n integers in [lo, hi], one from each of n equal strata, shuffled."""
    edges = np.linspace(lo, hi + 1, n + 1)
    out = [int(rng.integers(math.ceil(edges[i]), max(math.ceil(edges[i]) + 1,
                                                     math.ceil(edges[i + 1]))))
           for i in range(n)]
    rng.shuffle(out)
    return out


def stratified_pick(rng: np.random.Generator, pool: Sequence[int],
                    key: Sequence[float], n: int) -> List[int]:
    """One member of the pool from each of n equal-count strata of key,
    drawn from the middle third of its stratum so that every seed gets
    the same key profile."""
    order = np.argsort(np.asarray(key), kind="stable")
    picks = []
    for chunk in np.array_split(order, n):
        third = len(chunk) // 3
        middle = chunk[third:len(chunk) - third] if third else chunk
        picks.append(int(pool[int(rng.choice(middle))]))
    return picks


def _squares(r: int):
    ks = np.arange(r, dtype=np.int64)
    return ks, ks * ks % r


def _plain_support(r: int, R: int) -> int:
    """Roots k of m in [1, R] (j = 1): E2 by sparse convolution costs
    about its square."""
    _, sq = _squares(r)
    return int(np.count_nonzero((sq >= 1) & (sq <= R)))


def _pair_sum_support(r: int, R: int) -> int:
    """Distinct pair sums of those roots: E4 costs about its square."""
    ks, sq = _squares(r)
    roots = ks[(sq >= 1) & (sq <= R)]
    return int(np.unique(np.add.outer(roots, roots) % r).size)


def _difference_support(r: int, R: int, h: int = 1) -> int:
    """Distinct root differences kt - k with k^2 = m, kt^2 = m + h, m in
    [1, R] (j = 1): F2 costs about its square."""
    _, sq = _squares(r)
    order = np.argsort(sq, kind="stable")
    ms = np.arange(1, R + h + 1)
    lo = np.searchsorted(sq[order], ms)
    hi = np.searchsorted(sq[order], ms, side="right")
    diffs = [np.subtract.outer(order[lo[m + h]:hi[m + h]], order[lo[m]:hi[m]]).ravel() % r
             for m in range(R)]
    return int(np.unique(np.concatenate(diffs)).size)


def _moduli_by_class(rng, lo, hi, omega, odd, key_fn, pool_size=None) -> List[int]:
    """SCAN_PER_CLASS moduli for each omega in (1, 2, 3), stratified by
    key_fn over the class (or over a random pool_size of it)."""
    out: List[int] = []
    for w in (1, 2, 3):
        pool = [r for r in range(lo, hi + 1)
                if omega[r] == w and (r % 2 == 1 or not odd)]
        if pool_size is not None:
            pool = sorted(int(r) for r in rng.choice(pool, pool_size, replace=False))
        key = [key_fn(r) for r in pool]
        out += stratified_pick(rng, pool, key, SCAN_PER_CLASS)
    return sorted(out)


def scan_grids(seed: int) -> List[Dict[str, object]]:
    """The scan-energy grids: E4, E2 and F2, each over moduli mixing
    primes and composites with omega <= 3, stratified by the support
    size that sets the cost of each energy."""
    rng = np.random.default_rng([seed, 1])
    omega = omega_table(E2F2_RANGE[1])
    e4 = _moduli_by_class(rng, *E4_RANGE, omega, True,
                          lambda r: _pair_sum_support(r, E4_R), pool_size=300)
    e2 = _moduli_by_class(rng, *E2F2_RANGE, omega, False,
                          lambda r: _plain_support(r, E2F2_R), pool_size=60)
    f2 = _moduli_by_class(rng, *E2F2_RANGE, omega, False,
                          lambda r: _difference_support(r, E2F2_R), pool_size=30)
    return [
        {"op": "e4", "grid": {"r": e4, "j": [1], "R": [E4_R]}},
        {"op": "e2", "grid": {"r": e2, "j": [1], "R": [E2F2_R]}},
        {"op": "f2", "grid": {"r": f2, "j": [1], "R": [E2F2_R], "h": [1]}},
    ]


def declared_cost(grids: Sequence[Dict[str, object]]) -> int:
    """The scan's own cost model summed over every grid point."""
    total = 0
    for g in grids:
        R = g["grid"]["R"][0]
        power = 4 if g["op"] == "e4" else 2
        total += sum(r * R ** power for r in g["grid"]["r"])
    return total


def _random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = int(rng.integers(lo, hi + 1))
        if is_prime(n):
            return n


def _unit(rng, q: int) -> int:
    """A random residue coprime to q (1 for q = 1)."""
    while True:
        v = int(rng.integers(1, max(q, 2)))
        if math.gcd(v, q) == 1:
            return v


def _sqrt_query(rng, r: int) -> Dict[str, object]:
    # half the queries ask for a known square, half for a random residue
    if rng.random() < 0.5:
        k = int(rng.integers(0, r))
        m = k * k % r
    else:
        m = int(rng.integers(0, r))
    return {"op": "sqrt_mod_all", "m": m, "r": r}


def _large_moduli(rng, n: int) -> List[int]:
    """Moduli up to 1e12 in three equal classes: primes near 1e12 and p*q
    with both primes near 1e6 (trial division runs almost to its 1e6
    limit), and p*q with p below 1e4 (it stops near sqrt(q))."""
    out = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            out.append(_random_prime(rng, 9 * 10 ** 11, 10 ** 12))
        elif kind == 1:
            p = _random_prime(rng, 900_000, 1_000_000)
            out.append(p * _random_prime(rng, 900_000, 10 ** 12 // p))
        else:
            p = _random_prime(rng, 1_000, 10_000)
            out.append(p * _random_prime(rng, 10 ** 8, 10 ** 12 // p))
    return out


def query_stream(seed: int) -> List[Dict[str, object]]:
    """The seeded query stream in a shuffled order, QUERY_COUNTS of each
    operation."""
    rng = np.random.default_rng([seed, 2])
    c = QUERY_COUNTS
    qs: List[Dict[str, object]] = []
    for r in stratified_ints(rng, 2, 100_000, c["sqrt_small"]):
        qs.append(_sqrt_query(rng, r))
    for e in stratified_ints(rng, 500, 900, c["sqrt_mid"]):
        qs.append(_sqrt_query(rng, int(10 ** (e / 100))))
    for r in _large_moduli(rng, c["sqrt_large"]):
        qs.append(_sqrt_query(rng, r))
    for q in stratified_ints(rng, 1, 20_000, c["gauss_direct"]):
        qs.append({"op": "gauss_sum_direct", "q": q,
                   "a": int(rng.integers(0, q)), "b": int(rng.integers(0, q))})
    for q in stratified_ints(rng, 0, 49_999, c["gauss_closed"]):
        q = 2 * q + 1
        qs.append({"op": "gauss_sum_closed", "q": q,
                   "a": int(rng.integers(0, q)), "b": int(rng.integers(0, q))})
    # distinct odd q, so every gcal call misses the unit-inverse cache
    for q in stratified_ints(rng, 1, 19_999, c["gcal"]):
        q = 2 * q + 1
        qs.append({"op": "gcal", "q": q, "a": int(rng.integers(0, q)),
                   "b": int(rng.integers(0, q)), "j": _unit(rng, q),
                   "k": int(rng.integers(0, q)), "u": int(rng.integers(0, q)),
                   "s": _unit(rng, q)})
    for r in stratified_ints(rng, 1, 600, c["esum_jh"]):
        qs.append({"op": "esum_jh", "l": int(rng.integers(0, r)),
                   "n": int(rng.integers(0, r)), "j": _unit(rng, r),
                   "h": int(rng.integers(0, 3)), "r": r})
    for kind in ("energy_e2", "energy_f2"):
        for r in stratified_ints(rng, 2, 20_000, c[kind]):
            q = {"op": kind, "R": int(rng.integers(1, min(r, 24) + 1)),
                 "j": _unit(rng, r), "r": r}
            if kind == "energy_f2":
                q["h"] = int(rng.integers(1, 4))
            qs.append(q)
    odd_primes = [p for p in range(3, 200) if is_prime(p)]
    for _ in range(c["s4_closed"]):
        r = int(rng.choice(odd_primes))
        qs.append({"op": "s4_closed", "j": _unit(rng, r),
                   "h": [int(v) for v in rng.integers(0, r, 4)], "r": r})
    for _ in range(c["px_monitor"]):
        den = int(rng.integers(2, 1001))
        qs.append({"op": "px_monitor", "x": [int(rng.integers(1, den)), den],
                   "Q": int(rng.integers(2, 11)), "N": int(rng.integers(64, 1001))})
    for _ in range(c["ls_lhs"]):
        qs.append({"op": "ls_lhs", "Q": int(rng.integers(2, 7)),
                   "N": int(rng.integers(16, 257)), "M": int(rng.integers(0, 1000)),
                   "coef_seed": int(rng.integers(0, 2 ** 31))})
    order = rng.permutation(len(qs))
    return [qs[i] for i in order]


def generate(workload: str, seed: int) -> object:
    """The inputs of one workload.  accept runs the criteria at their fixed
    parameters and seeds, so its inputs do not depend on the seed."""
    if workload == "accept":
        return {"suite": "all"}
    if workload == "scan-energy":
        return {"grids": scan_grids(seed), "budget": SCAN_BUDGET}
    if workload == "queries":
        return {"queries": query_stream(seed)}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
