import math
from collections import Counter

import pytest

from sievelab import energies
from sievelab.energies import (_energy_from_multiset, energy_e2, energy_e4,
                               energy_f2, kssz_check)
from sievelab.sqrtmod import build_root_multiset, sqrt_mod_all

#: a prime far above any dense histogram of the fast kernel
BIG_PRIME = 1000000007


def brute_e2(R, j, r):
    values = []
    for m in range(1, R + 1):
        values.extend(sqrt_mod_all(j * m % r, r).roots)
    count = 0
    for a in values:
        for b in values:
            for c in values:
                for d in values:
                    if (a + b - c - d) % r == 0:
                        count += 1
    return count


def literal_energy(values, r, fold):
    """Solutions of x1 + .. + x_fold = y1 + .. + y_fold (mod r), by counting."""
    sums = Counter([0])
    for _ in range(fold):
        step = Counter()
        for s, n in sums.items():
            for v in values:
                step[(s + v) % r] += n
        sums = step
    return sum(n * n for n in sums.values())


def test_e2_literal_quadruple_count():
    for (R, j, r) in ((1, 1, 7), (3, 1, 7), (2, 2, 15), (4, 1, 12)):
        assert energy_e2(R, j, r).energy == brute_e2(R, j, r)


def test_e2_example():
    assert energy_e2(1, 1, 7).energy == 6


def test_methods_agree_on_grid():
    for r in (7, 12, 35, 60):
        for j in (1, 11):
            if math.gcd(j, r) != 1:
                continue
            for R in (1, 4, min(8, r)):
                e2c = energy_e2(R, j, r, "conv")
                e2b = energy_e2(R, j, r, "brute")
                assert e2c.energy == e2b.energy
                e4c = energy_e4(R, j, r, "conv")
                e4b = energy_e4(R, j, r, "brute")
                assert e4c.energy == e4b.energy
                for h in (0, 1, 2):
                    assert (energy_f2(R, j, h, r, "conv").energy
                            == energy_f2(R, j, h, r, "brute").energy)


def test_energy_is_exact_integer():
    rep = energy_e4(8, 1, 60)
    assert isinstance(rep.energy, int)


def test_f2_bound_uses_gcd_h_r():
    rep = energy_f2(4, 1, 3, 15)
    assert rep.hyp_bound == pytest.approx(3 * 4 ** 4 / 15 + 16)
    # h = 0 mod r uses (0, r) = r
    rep0 = energy_f2(4, 1, 0, 15)
    assert rep0.hyp_bound == pytest.approx(15 * 4 ** 4 / 15 + 16)


def test_kssz_requires_prime():
    with pytest.raises(ValueError):
        kssz_check(15, 1, 3)
    out = kssz_check(29, 1, 3, with_e4=True)
    assert out["e2"] == energy_e2(3, 1, 29).energy
    assert out["e4_ratio"] >= 0


def test_large_prime_energies_match_literal_counts():
    # every bin lies far apart at r ~ 1e9, so the kernel keeps sparse bins
    ms = build_root_multiset(8, 1, BIG_PRIME, "plain", method="oracle")
    values = [lam for lam, c in ms.table.items() for _ in range(c)]
    assert _energy_from_multiset(ms.table, BIG_PRIME, 2, "conv") == brute_e2(8, 1, BIG_PRIME)
    assert (_energy_from_multiset(ms.table, BIG_PRIME, 4, "conv")
            == literal_energy(values, BIG_PRIME, 4))
    R, j, h = 6, 3, 1
    diffs = [(kt - k) % BIG_PRIME
             for m in range(1, R + 1)
             for k in sqrt_mod_all(j * m % BIG_PRIME, BIG_PRIME).roots
             for kt in sqrt_mod_all(j * (m + h) % BIG_PRIME, BIG_PRIME).roots]
    assert energy_f2(R, j, h, BIG_PRIME).energy == literal_energy(diffs, BIG_PRIME, 2)


def test_sparse_bins_merge_across_blocks():
    # 400 keys make 160000 pair sums, several merges of the sparse bins
    r = 10 ** 12 + 39
    table = {(k * 7919 ** 3) % r: 1 + k % 3 for k in range(400)}
    values = [lam for lam, c in table.items() for _ in range(c)]
    assert _energy_from_multiset(table, r, 2, "conv") == literal_energy(values, r, 2)


def test_sparse_bins_match_brute_on_grid(monkeypatch):
    monkeypatch.setattr(energies, "_DENSE_BINS", 0)
    for r in (7, 35, 60):
        for R in (1, 4, min(8, r)):
            for kind in (energy_e2, energy_e4):
                assert kind(R, 1, r, "conv").energy == kind(R, 1, r, "brute").energy
            assert (energy_f2(R, 1, 2, r, "conv").energy
                    == energy_f2(R, 1, 2, r, "brute").energy)


def test_int64_certificate_at_boundary():
    # 3037000499^2 < 2^63 <= 3037000500^2 and 55108^4 < 2^63 <= 55109^4;
    # accepted cases run "conv" only, since "brute" expands the multiset
    for fold, mass in ((2, 3037000499), (4, 55108)):
        assert _energy_from_multiset({0: mass}, 7, fold, "conv") == mass ** (2 * fold)
        for method in ("conv", "brute"):
            with pytest.raises(ValueError, match="2\\^63"):
                _energy_from_multiset({0: mass + 1}, 7, fold, method)
