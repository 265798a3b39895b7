import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from kernels import KERNELS, names
from sievelab import arith, energies, oracles, sqrtmod
from sievelab.energies import (_square_sum, energy_e2, energy_e2_e4,
                               energy_e2_e4_ladder, energy_e4, energy_f2,
                               energy_f2_ladder, kssz_check)
from sievelab.oracles import root_multiset
from sievelab.sqrtmod import (build_root_multiset, build_root_multiset_ladder,
                              sqrt_mod_all)

#: a prime far above any dense histogram of the fast kernel
BIG_PRIME = 1000000007
#: the largest prime below 2^63; 2^63 is the largest modulus factorize takes
PRIME_BELOW_2_63 = 2 ** 63 - 25


def multiset(table):
    """A {residue: count} table as build_root_multiset's sorted int64
    (keys, counts)."""
    keys = sorted(table)
    return (np.array(keys, dtype=np.int64),
            np.array([table[k] for k in keys], dtype=np.int64))


def multiset_energies(keys, counts, r, fold, method="conv", monkeypatch=None):
    """(E2,) for fold 2 or (E2, E4) for fold 4 of one multiset (keys,
    counts) mod r: conv is the one-rung call of energies._ladder_energies,
    and brute the brute side of energies._energies, its oracle builder
    patched through monkeypatch to return this multiset."""
    if method == "conv":
        return energies._ladder_energies([(keys, counts)], r, fold)[0]
    monkeypatch.setattr(energies, "root_multiset", lambda *args: (keys, counts))
    return energies._energies([1], 1, None, r, fold, "brute")[0]


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


def root_differences(R, j, h, r):
    """kt - k mod r over every root k of jm and kt of j(m + h), m in [1, R]."""
    return [(kt - k) % r
            for m in range(1, R + 1)
            for k in sqrt_mod_all(j * m % r, r).roots
            for kt in sqrt_mod_all(j * (m + h) % r, r).roots]


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
    out = kssz_check(29, 1, 3)
    assert out["e2"] == energy_e2(3, 1, 29).energy
    assert out["e2_ratio"] == out["e2"] / out["e2_bound"] >= 0


def test_large_prime_energies_match_literal_counts():
    # every bin lies far apart at r ~ 1e9, so the kernel keeps sparse bins
    keys, counts = build_root_multiset(8, 1, BIG_PRIME)
    values = np.repeat(keys, counts).tolist()
    assert (multiset_energies(keys, counts, BIG_PRIME, 2)[-1]
            == brute_e2(8, 1, BIG_PRIME))
    assert (multiset_energies(keys, counts, BIG_PRIME, 4)[-1]
            == literal_energy(values, BIG_PRIME, 4))
    R, j, h = 6, 3, 1
    assert (energy_f2(R, j, h, BIG_PRIME).energy
            == literal_energy(root_differences(R, j, h, BIG_PRIME), BIG_PRIME, 2))


def test_e2_serves_r_squared_past_2_63():
    # the fast plain builder solves per m here; the CLI check of
    # energy --kind e2 --R 12 --j 1 --r 1000000000039 pins the same 950
    r = 10 ** 12 + 39
    roots = [k for m in range(1, 13) for k in sqrt_mod_all(m, r).roots]
    assert literal_energy(roots, r, 2) == energy_e2(12, 1, r).energy == 950


@pytest.mark.parametrize("r", [PRIME_BELOW_2_63, 2 ** 63])
def test_f2_pair_sums_near_2_63_do_not_wrap(r):
    # here a + b of two roots passes 2^63: the kernel's pair sums must not
    # wrap int64 (at 2^63 - 25, (12, 3) once gave 40 for 44), and r = 2^63
    # itself must not be converted to int64
    for R, h in ((12, 3), (8, 7), (16, 2)):
        assert (energy_f2(R, 1, h, r).energy
                == literal_energy(root_differences(R, 1, h, r), r, 2))


@pytest.mark.parametrize("r", [PRIME_BELOW_2_63, 2 ** 63])
def test_tables_near_2_63_do_not_wrap(r):
    # both convolutions see keys near r
    table = {r - 1: 2, r - 2: 1, r // 2: 3, r // 3: 1, 5: 2}
    values = [lam for lam, c in table.items() for _ in range(c)]
    for fold in (2, 4):
        assert (multiset_energies(*multiset(table), r, fold)[-1]
                == literal_energy(values, r, fold))


def test_sparse_bins_merge_across_blocks():
    # 400 keys make 160000 pair sums, several merges of the sparse bins
    r = 10 ** 12 + 39
    table = {(k * 7919 ** 3) % r: 1 + k % 3 for k in range(400)}
    values = [lam for lam, c in table.items() for _ in range(c)]
    assert (multiset_energies(*multiset(table), r, 2)[-1]
            == literal_energy(values, r, 2))


def test_conv_matches_brute_at_scan_sizes():
    # the dense bins over many blocks of pair sums, at the scan-energy
    # workload's sizes: E4 at r = 13 * 17 * 19, E2 and F2 at r ~ 1e5; F2's
    # fast multiset comes from the array regime (R >= _ARRAY_MIN_R); and
    # E2 at the squaring oracle's largest r, 2^20
    for rep in (lambda m: energy_e4(48, 1, 4199, m),
                lambda m: energy_e2(1, 1, 2 ** 20, m),
                lambda m: energy_e2(600, 1, 99991, m),
                lambda m: energy_f2(600, 1, 1, 100005, m),
                lambda m: energy_f2(600, 1, 1, 99991, m)):
        assert rep("conv").energy == rep("brute").energy
    assert energy_f2(600, 1, 1, 99991).energy == 3387304


def test_sparse_bins_match_brute_on_grid(monkeypatch):
    monkeypatch.setattr(energies, "_DENSE_BINS", 0)
    for r in (7, 35, 60):
        for R in (1, 4, min(8, r)):
            for kind in (energy_e2, energy_e4):
                assert kind(R, 1, r, "conv").energy == kind(R, 1, r, "brute").energy
            assert (energy_f2(R, 1, 2, r, "conv").energy
                    == energy_f2(R, 1, 2, r, "brute").energy)


def criterion_3_subgrid():
    """(r, j, R) of criterion 3's grid at r <= 30 and j in (1, 2, 3)."""
    for r in range(1, 31):
        for j in (1, 2, 3):
            if math.gcd(j, r) == 1:
                for R in range(1, min(8, r) + 1):
                    yield r, j, R


def conv_matches_brute_on_criterion_3_subgrid():
    """Compare conv with brute for E2, E4 and F2 (h = 0, 1, 2) at every
    point of the subgrid; returns the number of comparisons."""
    compared = 0
    for r, j, R in criterion_3_subgrid():
        reps = [lambda m: energy_e2(R, j, r, m),
                lambda m: energy_e4(R, j, r, m)]
        reps += [lambda m, h=h: energy_f2(R, j, h, r, m) for h in (0, 1, 2)]
        for rep in reps:
            assert rep("conv").energy == rep("brute").energy
            compared += 1
    return compared


def e2_e4_match_the_single_energies_on_criterion_3_subgrid():
    """energy_e2_e4 equals (energy_e2, energy_e4) exactly, both methods."""
    for r, j, R in criterion_3_subgrid():
        for m in ("conv", "brute"):
            assert (energy_e2_e4(R, j, r, m)
                    == (energy_e2(R, j, r, m), energy_e4(R, j, r, m)))


@pytest.mark.parametrize("dense_bins", [energies._DENSE_BINS, 0])
@pytest.mark.parametrize("block", [1, 2, 5, 2 ** 62])
def test_pair_blocks_match_brute_on_criterion_3_subgrid(block, dense_bins,
                                                        monkeypatch):
    # blocks of 1, 2 and 5 pair sums split even these tiny tables into
    # row blocks, each pairing only with the columns from its own start,
    # with a doubled weight past the block; 2^62 keeps every table in one
    # block of every ordered pair.  Dense and sparse bins both run, and
    # E2 and E4 from one first pass equal those of separate calls.
    monkeypatch.setattr(energies, "_BLOCK", block)
    monkeypatch.setattr(energies, "_DENSE_BINS", dense_bins)
    monkeypatch.setattr(energies, "_TRANSFORM_PAIRS_PER_BIN", math.inf)
    assert conv_matches_brute_on_criterion_3_subgrid() == 2275
    e2_e4_match_the_single_energies_on_criterion_3_subgrid()


def ladder_points(seed, count):
    """Seeded (Rs, j, r, h): r <= 160, a unit j, 1 to 5 strictly
    increasing rungs up to min(r, 48), so the fast builder's top rung
    falls on both sides of _ARRAY_MIN_R, and h in [-5, r + 5]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = int(rng.integers(1, 161))
        units = [j for j in range(1, r + 1) if math.gcd(j, r) == 1]
        j = units[int(rng.integers(len(units)))]
        top = min(r, 48)
        size = int(rng.integers(1, min(5, top) + 1))
        Rs = sorted(rng.choice(np.arange(1, top + 1), size, replace=False).tolist())
        yield Rs, j, r, int(rng.integers(-5, r + 6))


#: each regime threshold of the ladder, forced to both of its values
LADDER_THRESHOLDS = [
    (energies, "_DENSE_BINS", 0), (energies, "_DENSE_BINS", 2 ** 20),
    (energies, "_BLOCK", 1), (energies, "_BLOCK", energies._BLOCK),
    (energies, "_TRANSFORM_PAIRS_PER_BIN", 0),
    (energies, "_TRANSFORM_PAIRS_PER_BIN", math.inf),
    (sqrtmod, "_ARRAY_MIN_R", 0), (sqrtmod, "_ARRAY_MIN_R", sys.maxsize)]


@pytest.mark.parametrize("module, name, value", LADDER_THRESHOLDS,
                         ids=[f"{n}={v}" for _, n, v in LADDER_THRESHOLDS])
def test_ladders_equal_one_rung_calls_and_brute(module, name, value,
                                                monkeypatch):
    # every rung of both ladders equals the one-rung call and the brute
    # oracle, and the builder's increments, summed up to each rung, equal
    # oracles.root_multiset there, for both kinds
    monkeypatch.setattr(module, name, value)
    levelled, passes = [], energies._levelled_bins
    monkeypatch.setattr(energies, "_levelled_bins", lambda *args: (
        lambda raw: levelled.append(raw is not None) or raw)(passes(*args)))
    for Rs, j, r, h in ladder_points(41, 100):
        e2_e4 = energy_e2_e4_ladder(Rs, j, r)
        f2 = energy_f2_ladder(Rs, j, h, r)
        assert [(a.R, b.R, c.R) for (a, b), c in zip(e2_e4, f2)] == \
            [(R, R, R) for R in Rs]
        assert energy_e2_e4_ladder(Rs, j, r, "brute") == \
            [energy_e2_e4(R, j, r, "brute") for R in Rs]
        for (e2, e4), f, R in zip(e2_e4, f2, Rs):
            assert (e2, e4) == energy_e2_e4(R, j, r)
            assert f == energy_f2(R, j, h, r)
            assert ([e2.energy, e4.energy, f.energy]
                    == [rep.energy for rep in (*energy_e2_e4(R, j, r, "brute"),
                                               energy_f2(R, j, h, r, "brute"))]
                    ), (Rs, j, r, h, R)
        for kind in (None, h):
            cumulative = Counter()
            for R, (keys, counts) in zip(Rs, build_root_multiset_ladder(
                    Rs, j, r, kind)):
                assert keys.dtype == counts.dtype == np.int64
                assert np.all(np.diff(keys) > 0) and np.all(counts >= 1)
                cumulative.update(dict(zip(keys.tolist(), counts.tolist())))
                keys, counts = root_multiset(R, j, r, kind)
                assert sorted(cumulative.items()) == list(zip(
                    keys.tolist(), counts.tolist())), (Rs, j, r, kind, R)
    # no levelled pass without dense bins; with them it runs, and at
    # transform threshold 0 its fallback runs too
    if name == "_DENSE_BINS" and value == 0:
        assert levelled and not any(levelled)
    else:
        assert any(levelled)
    if name == "_TRANSFORM_PAIRS_PER_BIN" and value == 0:
        assert not all(levelled)


def test_ladder_refusals():
    # the rungs must rise strictly within [1, r], for both methods, and
    # the top rung's mass is certified before any pass
    for method in ("conv", "brute"):
        for Rs in ([], [2, 2], [3, 1], [0, 1], [1, 8]):
            with pytest.raises(ValueError, match="need"):
                energy_e2_e4_ladder(Rs, 1, 7, method)
            with pytest.raises(ValueError, match="need"):
                energy_f2_ladder(Rs, 1, 1, 7, method)
    with pytest.raises(ValueError, match="unknown method"):
        energy_f2_ladder([1, 2], 1, 1, 7, "fast")
    parts = [multiset({0: 55108}), multiset({1: 1})]
    with pytest.raises(ValueError, match="mass = 55109"):
        energies._ladder_energies(parts, 7, 4)


@pytest.mark.parametrize("method", ["conv", "brute"])
@pytest.mark.parametrize("function, args", [
    (KERNELS[name].call, ints) for name in names("one read")
    for ints in KERNELS[name].grid])
def test_ladder_arguments_are_read_once_per_call(function, args, method,
                                                 monkeypatch):
    # each call reaches sqrtmod._ladder_args, the ladder's one reader, once;
    # the conv side hands the ints it returned to _ladder_increments, which
    # runs once and reads nothing: in the per-m regime (top rung < 32) no
    # _as_int call is made under it, where the builder read them again
    want = function(*args, method=method)
    reads, events = [], []
    reader, build = sqrtmod._ladder_args, sqrtmod._ladder_increments

    def read(*argv):
        events.append("read")
        return reader(*argv)

    def as_int(x):
        reads.append(x)
        return arith._as_int(x)

    def increments(Rs, j, r, h):
        assert all(type(x) is int for x in (*Rs, j, r))
        assert h is None or type(h) is int
        before = len(reads)
        parts = build(Rs, j, r, h)
        if Rs[-1] < sqrtmod._ARRAY_MIN_R:
            assert reads[before:] == []
        events.append("build")
        return parts

    for module in (sqrtmod, energies):
        monkeypatch.setattr(module, "_ladder_args", read)
        monkeypatch.setattr(module, "_as_int", as_int)
    monkeypatch.setattr(energies, "_ladder_increments", increments)
    assert function(*args, method=method) == want
    assert events == (["read", "build"] if method == "conv" else ["read"])


@pytest.mark.parametrize("method", ["conv", "brute"])
def test_one_reader_refuses_alike_on_both_methods(method):
    # the refusals of _ladder_args, one bad argument at a time, with the
    # messages and types the builder and the oracle raise
    for call, error, message in (
            (lambda: energy_e2(3, 5, 35, method), ValueError,
             "need gcd(j, r) = 1"),
            (lambda: energy_f2(0, 1, 1, 35, method), ValueError,
             "need 1 <= R <= r"),
            (lambda: energy_e2(36, 1, 35, method), ValueError,
             "need 1 <= R <= r"),
            (lambda: energy_e2_e4_ladder([3, 2], 1, 35, method), ValueError,
             "need rungs R_1 < ... < R_L, at least one"),
            (lambda: energy_f2_ladder([], 1, 1, 35, method), ValueError,
             "need rungs R_1 < ... < R_L, at least one"),
            (lambda: energy_f2(3, 1, None, 35, method), TypeError, None),
            (lambda: energy_e2(3.0, 1, 35, method), TypeError, None)):
        with pytest.raises(error) as info:
            call()
        if message is not None:
            assert str(info.value) == message


def test_one_rung_calls_keep_their_passes(monkeypatch):
    # a one-rung call runs the one-multiset passes and no levelled pass:
    # two self-convolutions for E2 and E4, one for F2
    calls = Counter()
    for name in ("_self_convolve", "_levelled_bins"):
        monkeypatch.setattr(energies, name, lambda *args, name=name, kernel=getattr(
            energies, name): calls.update([name]) or kernel(*args))
    energy_e2_e4(48, 1, 4199)
    assert calls == {"_self_convolve": 2}
    calls.clear()
    energy_f2(600, 1, 1, 99991)
    assert calls == {"_self_convolve": 1}


def test_doubled_weight_at_the_certificate_edge(monkeypatch):
    # with one pair sum per block, {0: a, 1: a} forms the weight 2 a^2 of
    # the pair (0, 1) past the row block of 0; (2a)^2 < 2^63 still holds,
    # and at a = 27554 the mass 55108 is the largest fold 4 admits
    monkeypatch.setattr(energies, "_BLOCK", 1)
    a = 1518500249
    assert (2 * a) ** 2 < 2 ** 63
    assert (multiset_energies(*multiset({0: a, 1: a}), 7, 2)[-1]
            == 31901471815810146514474952569620744006)  # 6 a^4
    a = 27554
    assert (2 * a) ** 4 < 2 ** 63 <= (2 * a + 1) ** 4
    assert (multiset_energies(*multiset({0: a, 1: a}), 7, 4)[-1]
            == 23258155648387961713069597867047339520)  # 70 a^8


def test_int64_certificate_at_boundary(monkeypatch):
    # 3037000499^2 < 2^63 <= 3037000500^2 and 55108^4 < 2^63 <= 55109^4;
    # accepted cases run "conv" only, since "brute" expands the multiset
    for fold, mass in ((2, 3037000499), (4, 55108)):
        assert (multiset_energies(*multiset({0: mass}), 7, fold)[-1]
                == mass ** (2 * fold))
        for method in ("conv", "brute"):
            with pytest.raises(ValueError, match="2\\^63"):
                multiset_energies(*multiset({0: mass + 1}), 7, fold, method,
                                  monkeypatch)


@pytest.mark.parametrize("method", ["conv", "brute"])
def test_int64_certificate_sums_counts_without_wrapping(method, monkeypatch):
    # four counts of 2^62 sum to 0 in int64, which would pass mass^fold <
    # 2^63; the exact mass 2^64 is refused before either kernel runs, and
    # before brute repeats the keys by such counts
    keys = np.arange(4, dtype=np.int64)
    counts = np.full(4, 2 ** 62, dtype=np.int64)
    assert counts.sum() == 0

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the certificate")

    monkeypatch.setattr(energies, "_self_convolve", no_kernel)
    monkeypatch.setattr(oracles, "_dense_pair_hist", no_kernel)
    monkeypatch.setattr(np, "repeat", no_kernel)
    for fold in (2, 4):
        with pytest.raises(ValueError, match="mass = 18446744073709551616"):
            multiset_energies(keys, counts, 7, fold, method, monkeypatch)


@pytest.mark.parametrize("fold, a, dot", [(2, 32767, True), (2, 32768, False),
                                          (4, 132, True), (4, 133, False)])
def test_square_sum_certificate_on_both_sides(fold, a, dot, monkeypatch):
    # {0: a, 1: a} has mass^(2 fold) >= 2^63, so only max(h) * mass^fold
    # < 2^63 can certify the int64 dot: 8 a^4 for fold 2 (2^63 - 1.1e15 at
    # a = 32767) and 96 a^8 for fold 4; one step further is refused
    mass = 2 * a
    assert mass ** (2 * fold) >= 2 ** 63
    h2 = np.array([a * a, 2 * a * a, a * a], dtype=np.int64)
    h = h2 if fold == 2 else np.convolve(h2, h2)
    assert (int(h.max()) * mass ** fold < 2 ** 63) == dot
    python_sum = sum(c * c for c in h.tolist())
    dots, numpy_dot = [], np.dot
    monkeypatch.setattr(np, "dot", lambda x, y: dots.append(1) or numpy_dot(x, y))
    assert _square_sum(h, mass ** fold) == python_sum
    monkeypatch.undo()
    assert len(dots) == dot
    assert (multiset_energies(*multiset({0: a, 1: a}), 7, fold)[-1]
            == python_sum)
    assert python_sum == (6 * a ** 4 if fold == 2 else 70 * a ** 8)


def test_square_sum_of_an_empty_table():
    assert _square_sum(np.zeros(0, dtype=np.int64), 0) == 0
    assert multiset_energies(*multiset({}), 7, 4) == (0, 0)


def test_levelled_square_sums_past_the_int64_dot(monkeypatch):
    # two rungs of mass 3000 and 5200 mod 7: both passes are levelled, E2's
    # rows pass the int64 certificate (one einsum), and E4's 2-D rows, with
    # max(h) * 5200^4 >= 2^63, are summed as Python ints; each rung equals
    # the brute energies of its cumulative multiset
    calls = Counter()
    for module, name in ((energies, "_levelled_bins"), (np, "einsum")):
        monkeypatch.setattr(module, name, lambda *args, name=name, kernel=getattr(
            module, name): calls.update([name]) or kernel(*args))
    parts = [multiset({0: 2000, 3: 1000}), multiset({1: 700, 5: 1500})]
    got = energies._ladder_energies(parts, 7, 4)
    assert calls == {"_levelled_bins": 2, "einsum": 1}
    assert got == [(33000000000000, 1921000000000000000000000000),
                   (136512600000000, 79646241443260000000000000000)]
    monkeypatch.undo()
    assert got == [oracles.pair_energies(*parts[0], 7, 4),
                   oracles.pair_energies(*multiset(
                       {0: 2000, 1: 700, 3: 1000, 5: 1500}), 7, 4)]


def count_transforms(monkeypatch):
    """Patch np.fft.rfft to record each transform length it is called with."""
    lengths, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, n: lengths.append(n) or rfft(x, n))
    return lengths


@pytest.mark.parametrize("threshold", [0, math.inf])
def test_transform_regime_matches_brute_on_criterion_3_subgrid(threshold,
                                                               monkeypatch):
    # threshold 0 sends every nonempty self-convolution through the
    # transform, both E4 passes included; infinity sends none.  Then E2
    # and E4 from one first pass equal those of separate calls.
    monkeypatch.setattr(energies, "_TRANSFORM_PAIRS_PER_BIN", threshold)
    lengths = count_transforms(monkeypatch)
    nonempty, convolve = [], energies._self_convolve
    monkeypatch.setattr(energies, "_self_convolve", lambda lam, cnt, r: (
        nonempty.append(lam.size > 0) or convolve(lam, cnt, r)))
    assert conv_matches_brute_on_criterion_3_subgrid() == 2275
    assert len(lengths) == (sum(nonempty) if threshold == 0 else 0)
    assert sum(nonempty) == 2159
    assert all(n & (n - 1) == 0 for n in lengths)
    e2_e4_match_the_single_energies_on_criterion_3_subgrid()


def test_transform_forms_no_pair_sum(monkeypatch):
    # the transform reads the counts alone, so a single-block call that
    # takes it forms no block of pair sums: at threshold 0 no np.add.outer
    # runs inside energies, while at infinity the same call forms one
    outer = []

    class CountingAdd:
        def __getattr__(self, name):
            return getattr(np.add, name)

        @staticmethod
        def outer(a, b):
            outer.append(1)
            return np.add.outer(a, b)

    class CountingNumpy:
        add = CountingAdd()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(energies, "np", CountingNumpy())
    lengths = count_transforms(monkeypatch)
    lam, cnt = multiset({0: 1, 3: 2, 5: 1})
    bins = []
    for threshold, formed in ((0, 0), (math.inf, 1)):
        monkeypatch.setattr(energies, "_TRANSFORM_PAIRS_PER_BIN", threshold)
        outer.clear()
        keys, h = energies._self_convolve(lam, cnt, 7)
        assert keys is None and len(outer) == formed
        bins.append(h.tolist())
    assert lengths == [16]
    assert bins[0] == bins[1] == [1, 4, 0, 5, 0, 2, 4]


def test_transform_gives_literal_energies_at_scale(monkeypatch):
    # with R = r every k is a root of exactly one m, so every residue has
    # count 1 and each pass spreads its mass evenly: E2 = r^3, E4 = r^7
    lengths = count_transforms(monkeypatch)
    assert energy_e2(100003, 1, 100003).energy == 100003 ** 3
    assert lengths == [2 ** 18]
    assert energy_e4(10007, 1, 10007).energy == 10007 ** 7
    assert lengths[1:] == [2 ** 15, 2 ** 15]


def test_transform_bound_failure_takes_the_pair_blocks(monkeypatch):
    # ||cnt||^2 = 2 a^2 ~ 4.6e18 is far past the rounding bound (1 / (4
    # bound) ~ 4e13 at length 16), so even at threshold 0 the pair blocks
    # run, and stay exact; a = 10^6 passes the bound and transforms
    monkeypatch.setattr(energies, "_TRANSFORM_PAIRS_PER_BIN", 0)
    lengths = count_transforms(monkeypatch)
    a = 1518500249
    assert energies._transform_error_bound(2.0 * a * a, 16) >= 0.25
    assert (multiset_energies(*multiset({0: a, 1: a}), 7, 2)[-1]
            == 6 * a ** 4)
    assert lengths == []
    a = 10 ** 6
    assert energies._transform_error_bound(2.0 * a * a, 16) < 0.25
    assert (multiset_energies(*multiset({0: a, 1: a}), 7, 2)[-1]
            == 6 * a ** 4)
    assert lengths == [16]


@pytest.mark.parametrize("shift", [0.6, -0.6])
def test_transform_exact_check_raises_on_a_moved_bin(shift, monkeypatch):
    # +0.6 rounds one bin up by 1, so the bins miss their exact total;
    # -0.6 on the empty bin r makes it negative
    monkeypatch.setattr(energies, "_TRANSFORM_PAIRS_PER_BIN", 0)
    irfft = np.fft.irfft

    def moved(f, n):
        z = irfft(f, n)
        z[7] += shift
        return z

    monkeypatch.setattr(np.fft, "irfft", moved)
    table = {0: 2, 1: 1, 3: 1}  # bins 0, 1, 2, 3, 4 and 6; bin 7 (r) is empty
    with pytest.raises(ArithmeticError, match="exact check"):
        multiset_energies(*multiset(table), 7, 2)


def test_importing_the_cli_does_not_load_numpy_fft():
    src = os.path.dirname(os.path.dirname(energies.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, sievelab.cli; "
         "print('numpy' in sys.modules, 'numpy.fft' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.split() == ["True", "False"]
