"""The ten acceptance criteria at their stated tolerances.

Each test runs one criterion end to end and emits a single pass/fail
line; criterion 10 is a non-failing monitor that only reports ratios.
The detail strings of criteria 1-9 must equal the ones pinned in
bench/reference/accept_details.json.
"""

import dataclasses
import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sievelab import acceptance, charsums, energies, oracles, sqrtmod
from sievelab.acceptance import CRITERIA
from sievelab.arith import factorize

#: the pinned detail string of every criterion; criterion 10's floats may
#: differ in the last bits across platforms, so it is not compared
REFERENCE_DETAILS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference"
     / "accept_details.json").read_text())


def _run(number):
    result = CRITERIA[number]()
    print(result.line)
    assert result.monitor or result.passed, result.line
    if number != 10:
        assert result.detail == REFERENCE_DETAILS[str(number)]
    return result


#: each criterion's name, and small parameters that keep it under a second
SMALL_RUNS = {
    1: ("sqrt oracle", dict(r_max=10, sample=5)),
    2: ("root counts", dict(q_max=31)),
    3: ("energy oracle", dict(r_max=6, R_max=2)),
    4: ("Gauss closed form", dict(q_max=31, extra=5)),
    5: ("appendix algebra", dict(pairs=5, pp_max=31, esum_rmax=10)),
    6: ("sieve constants", dict(instances=5)),
    7: ("Bombieri margin", dict(p_max=31)),
    8: ("S4 closed form", dict(full_rs=(3,), sampled_rs=(5,), samples=5)),
    9: ("gcd power sums", dict(H_max=10, r_max=31)),
    10: ("monitors", dict(prime_max=31, esum_rmax=31)),
}


def test_suite_all_lists_each_criterion_once():
    assert sorted(acceptance.SUITES["all"]) == list(range(1, 11))
    assert sorted(CRITERIA) == list(range(1, 11))


@pytest.mark.parametrize("number", sorted(SMALL_RUNS))
def test_criterion_reports_its_number_and_name(number):
    name, params = SMALL_RUNS[number]
    result = CRITERIA[number](**params)
    assert (result.number, result.name) == (number, name)
    assert result.monitor == (number == 10)
    status = "REPORT" if number == 10 else "PASS"
    assert re.fullmatch(rf"\[{status}\] criterion {number} "
                        rf"\({re.escape(name)}\): .+ \[\d+\.\ds\]",
                        result.line), result.line


def test_criterion_01_sqrt_oracle_all_moduli():
    # every r <= 10^4, every m mod r, zero mismatches, <= 60 s
    result = _run(1)
    assert result.elapsed_s <= 60


def test_criterion_01_rejects_misordered_rows(monkeypatch):
    # root_table's searchsorted needs rows strictly increasing in (m, k)
    def m_descending(r):
        return sqrtmod.root_pairs(r)[::-1]

    def k_descending_in_m(r):
        rp = sqrtmod.root_pairs(r)
        return rp[np.lexsort((-rp[:, 1], rp[:, 0]))]

    for bad, r in ((m_descending, 2), (k_descending_in_m, 3)):
        monkeypatch.setattr(acceptance, "root_pairs", bad)
        result = acceptance.criterion_1_sqrt_oracle(r_max=12, sample=0)
        assert not result.passed
        assert result.detail == f"r={r}: rows not strictly increasing in (m, k)"


def test_criterion_01_rejects_an_unreduced_m(monkeypatch):
    # m + r in the last row keeps k^2 = m (mod r), the permutation and the
    # (m, k) order; only the reduced square check k^2 mod r = m sees it
    def last_m_plus_r(r):
        rp = sqrtmod.root_pairs(r).copy()
        rp[-1, 0] += r
        return rp

    monkeypatch.setattr(acceptance, "root_pairs", last_m_plus_r)
    result = acceptance.criterion_1_sqrt_oracle(r_max=200, sample=50)
    assert not result.passed
    assert result.detail == "invalid pair m=1 k=0 r=1"


def test_criterion_01_rejects_a_negative_root(monkeypatch):
    # k - r in the last row at r = 5 keeps (k - r)^2 = m (mod 5); the
    # permutation check must report it, not raise from np.bincount
    def last_k_minus_r(r):
        rp = sqrtmod.root_pairs(r).copy()
        if r == 5:
            rp[-1, 1] -= r
        return rp

    monkeypatch.setattr(acceptance, "root_pairs", last_k_minus_r)
    result = acceptance.criterion_1_sqrt_oracle(r_max=10, sample=0)
    assert not result.passed
    assert result.line.startswith(
        "[FAIL] criterion 1 (sqrt oracle): r=5: root table is not a "
        "permutation [")


@pytest.mark.parametrize("fault", ["drop a root", "shift a root"])
def test_criterion_01_rejects_a_solver_mutant(fault, monkeypatch):
    # root_pairs squares, so only the comparison at the prime powers sees
    # a fault in the array solver; r = 2 is the first prime power
    solve = sqrtmod._prime_power_residue_roots

    def mutant(v, p, a):
        t, k = solve(v, p, a)
        if fault == "drop a root":
            return t[1:], k[1:]
        k = k.copy()
        k[0] += 1
        return t, k

    for module in (acceptance, sqrtmod):
        monkeypatch.setattr(module, "_prime_power_residue_roots", mutant)
    result = acceptance.criterion_1_sqrt_oracle(r_max=12, sample=0)
    assert not result.passed
    assert result.detail == "r=2: array solver pairs != root_pairs"


def solver_pass(monkeypatch):
    """(input dtype, sha256 of t and k as int64) of every call that
    criterion 1 makes to the array solver, all of them passing."""
    solve = sqrtmod._prime_power_residue_roots
    calls = []

    def recorded(v, p, a):
        t, k = solve(v, p, a)
        assert t.dtype == k.dtype == v.dtype
        digest = hashlib.sha256(t.astype(np.int64).tobytes())
        digest.update(k.astype(np.int64).tobytes())
        calls.append((v.dtype, digest.hexdigest()))
        return t, k

    monkeypatch.setattr(acceptance, "_prime_power_residue_roots", recorded)
    assert acceptance.criterion_1_sqrt_oracle(sample=0).passed
    return calls


def test_criterion_01_solver_pass_is_the_same_in_int64(monkeypatch, request):
    # criterion 1 solves every prime power <= 10^4 in int32; with the
    # dtype rule forced to int64 every (t, k) is the same, in one order
    int32_calls = solver_pass(monkeypatch)
    assert {dtype for dtype, _ in int32_calls} == {np.dtype(np.int32)}
    request.getfixturevalue("int64_residues")
    int64_calls = solver_pass(monkeypatch)
    assert [dtype for dtype, _ in int64_calls] == [np.dtype(np.int64)] * len(
        int32_calls)
    assert [d for _, d in int64_calls] == [d for _, d in int32_calls]


def test_criterion_02_root_count_formula():
    # #roots(0 mod p^alpha) = p^floor(alpha/2) for every prime power <= 10^4
    _run(2)


def test_criterion_03_energy_oracle_full_grid():
    # conv = brute exactly for E2/E4/F2 on R <= 8, r <= 60, all coprime j,
    # h in {0,1,2}, <= 120 s; the brute side squares each r once, for
    # every j and kind, so the table of squares is built 60 times
    oracles._square_groups.cache_clear()
    result = _run(3)
    assert result.elapsed_s <= 120
    assert oracles._square_groups.cache_info().misses == 60


def test_criterion_03_builds_one_ladder_per_kind(monkeypatch):
    # the conv side reads each (r, j) from one plain ladder and three F2
    # ladders over R = 1 .. min(8, r): 4 builds, where one build per R and
    # kind made 32 at every r >= 8
    builds, build = Counter(), energies._ladder_increments

    def counted(Rs, j, r, h=None):
        assert list(Rs) == list(range(1, min(8, r) + 1))
        builds[r, j] += 1
        return build(Rs, j, r, h)

    monkeypatch.setattr(energies, "_ladder_increments", counted)
    result = acceptance.criterion_3_energy_oracle(r_max=12)
    assert result.passed, result.detail
    assert builds == {(r, j): 4 for r in range(1, 13) for j in range(1, r + 1)
                      if math.gcd(j, r) == 1}
    compared = sum(5 * min(8, r) for r, _ in builds)
    assert result.detail == f"{compared} exact integer comparisons"


def moved_root_ladder(build, plain):
    """A ladder build with one value of each plain (plain True) or each
    difference increment moved to the next residue; the mass is kept."""
    def moved(Rs, j, r, h=None):
        parts = build(Rs, j, r, h)
        if (h is None) != plain:
            return parts
        for i, (keys, counts) in enumerate(parts):
            if keys.size:
                values = np.repeat(keys, counts)
                values[0] = (values[0] + 1) % r
                keys, counts = np.unique(values, return_counts=True)
                parts[i] = keys, counts.astype(np.int64)
        return parts
    return moved


def test_criterion_03_rejects_a_moved_root_difference(monkeypatch):
    # a fast difference builder that moves one difference to the next
    # residue keeps the mass; brute reads the oracle builder, so F2 differs
    monkeypatch.setattr(energies, "_ladder_increments", moved_root_ladder(
        energies._ladder_increments, plain=False))
    result = acceptance.criterion_3_energy_oracle(r_max=12, R_max=4)
    assert not result.passed
    assert result.detail.startswith("F2 mismatch"), result.detail


def test_criterion_03_rejects_a_moved_plain_root(monkeypatch):
    # the plain multiset feeds E2 and E4 through one first pass; one root
    # moved must show in the E2 comparison, which comes first
    monkeypatch.setattr(energies, "_ladder_increments", moved_root_ladder(
        energies._ladder_increments, plain=True))
    result = acceptance.criterion_3_energy_oracle(r_max=12, R_max=4)
    assert not result.passed
    assert result.detail.startswith("E2 mismatch"), result.detail


def test_criterion_03_rejects_a_moved_bin_of_the_e4_pass(monkeypatch):
    # E4's pass, the second levelled pass of one ladder, moves one unit of
    # its first row's first nonzero bin to the next residue, so every rung
    # cumulated from that row sees it; E2 reads the first pass alone, so
    # only the E4 comparison can see it
    ladder, levelled = energies._ladder_energies, energies._levelled_bins
    passes = []

    def counted(*args):
        passes.clear()
        return ladder(*args)

    def moved(lam, cnt, rung, r, levels):
        raw = levelled(lam, cnt, rung, r, levels)
        passes.append(1)
        if len(passes) == 2 and raw is not None and raw[0].any():
            k = int(np.flatnonzero(raw[0])[0])
            raw[0, k] -= 1
            raw[0, (k + 1) % r] += 1
        return raw

    monkeypatch.setattr(energies, "_ladder_energies", counted)
    monkeypatch.setattr(energies, "_levelled_bins", moved)
    result = acceptance.criterion_3_energy_oracle(r_max=12, R_max=4)
    assert not result.passed
    assert result.detail.startswith("E4 mismatch"), result.detail


def test_criterion_03_rejects_a_pair_binned_at_its_earlier_rung(monkeypatch):
    # the levelled pass bins each pair at the rung of its later element,
    # so that row i, cumulated, holds rung i's pairs; binned at the earlier
    # element's rung instead (numpy's maximum read as minimum inside
    # energies), a pair reaches rungs below its later element, and the
    # first pass, E2's, shows it
    class EarlierRung:
        maximum = np.minimum

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(energies, "np", EarlierRung())
    result = acceptance.criterion_3_energy_oracle(r_max=12, R_max=4)
    assert not result.passed
    assert result.detail.startswith("E2 mismatch"), result.detail


def test_criterion_04_gauss_closed_form():
    # |closed - direct| <= 1e-6, odd q <= 3000; |G| = sqrt(q) to 1e-9*q
    _run(4)


def test_criterion_05_appendix_algebra():
    # multiplicativity to 1e-6 on 10^3 coprime odd pairs; prime-power bound
    # with constant 12 up to 10^4; paired = bare to 1e-9*r for r <= 500;
    # gcal = gcal_literal to 1e-9*q for odd q <= 301
    _run(5)


def conjugate_value(fn):
    """fn with the value of the ExpSumValue it returns conjugated."""
    def mutant(*args):
        v = fn(*args)
        return dataclasses.replace(v, value=v.value.conjugate())
    return mutant


def test_criterion_05_rejects_a_conjugated_gcal(monkeypatch):
    # conjugation keeps multiplicativity, the bound and paired = bare; only
    # the comparison with gcal_literal sees it, first at q = 3
    monkeypatch.setattr(acceptance, "gcal", conjugate_value(acceptance.gcal))
    result = acceptance.criterion_5_appendix(pairs=5, pp_max=31, esum_rmax=10)
    assert not result.passed
    assert result.detail.startswith("gcal != gcal_literal at q=3: "), \
        result.detail


def test_criterion_06_sieve_constants():
    # classical large sieve with constant exactly 1 and double-sieve slack
    # >= 0 with constant 5, 10^3 seeded instances each
    _run(6)


@pytest.mark.parametrize("scale", [0.5, 1.9])
def test_criterion_06_rejects_a_scaled_lhs(scale, monkeypatch):
    # both scalings keep the constant-1 inequality on the random
    # instances (they reach at most about 0.51 of it); only the
    # comparison with ls_lhs_literal on instance 0 sees them
    lhs = acceptance.ls_lhs
    monkeypatch.setattr(acceptance, "ls_lhs",
                        lambda *args, **kwargs: scale * lhs(*args, **kwargs))
    result = acceptance.criterion_6_sieve_constants(instances=1)
    assert not result.passed
    assert result.detail.startswith(
        "ls_lhs != ls_lhs_literal: instance 0 moduli=classical "), \
        result.detail


def test_criterion_07_bombieri_margin():
    # |S(f,p)| <= 2 d_p(f) sqrt(p) for all p <= 2000 over the fixed corpus;
    # rational_expsum = rational_literal to 1e-9*p for p <= 101
    _run(7)


def test_criterion_07_rejects_a_conjugated_rational_expsum(monkeypatch):
    # conjugation keeps every margin; only the comparison with
    # rational_literal sees it
    monkeypatch.setattr(acceptance, "rational_expsum",
                        conjugate_value(acceptance.rational_expsum))
    result = acceptance.criterion_7_bombieri(p_max=31)
    assert not result.passed
    assert result.detail.startswith("rational_expsum != rational_literal "
                                    "at p="), result.detail


def test_criterion_08_s4_closed_form():
    # closed = direct to 1e-9*r^3 (full sweep r <= 13, seeded r <= 31);
    # weighted-energy Poisson paths to relative 1e-6 for r <= 61
    _run(8)


def _s4_mutant_detail(monkeypatch, module, name, wrap):
    """Criterion 8's detail with module.name wrapped by wrap, at reduced
    parameters: a full sweep at r = 3 only, no samples."""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    result = acceptance.criterion_8_s4(full_rs=(3,), sampled_rs=(3,),
                                       samples=0)
    assert not result.passed
    return result.detail


def test_criterion_08_rejects_a_conjugated_closed_form(monkeypatch):
    # at r = 3 (eps_3 = i) the first row in (h1, h2)-major order with an
    # imaginary S4 is h = (0, 0, 0, 1), where S4 = r * (i sqrt 3) * r
    def conjugated(rows_fn):
        return lambda j, r, rows: [v.conjugate() for v in rows_fn(j, r, rows)]

    detail = _s4_mutant_detail(monkeypatch, acceptance, "s4_closed_rows",
                               conjugated)
    assert detail.startswith("r=3 j=1 h=(0,0,0,1): "), detail


def test_criterion_08_rejects_an_off_by_one_pair_profile(monkeypatch):
    # the pair (1, 2) read as (2, 2): a point mass (1 + 2 = 0 mod 3)
    # becomes a Gauss profile; its first row in scan order is h = (0,0,1,2),
    # where S4 = r^2 = 9 turns into -9
    def off_by_one(profile):
        def mutant(a, b, r, legendre):
            if (a, b) == (1, 2):
                a += 1
            return profile(a, b, r, legendre)
        return mutant

    detail = _s4_mutant_detail(monkeypatch, charsums, "_s2_profile",
                               off_by_one)
    assert detail.startswith("r=3 j=1 h=(0,0,1,2): closed=(-9"), detail


def test_criterion_09_gcd_power_sums():
    # sum gcd(h,r)^sigma <= H tau(r), H <= 10^3, r <= 10^4,
    # sigma in {1/5, 1/2, 1}
    _run(9)


def test_gcd_row_equals_np_gcd():
    # criterion 9 cannot see a wrong row (a row too small still passes
    # sigma = 1), so the row is checked here, at H = 1000 for every
    # r <= 2000 and at r = H = 1
    hs = np.arange(1, 1001, dtype=np.int64)
    for r in range(1, 2001):
        row = acceptance._gcd_row(factorize(r), 1000)
        assert row.dtype == np.int64
        assert np.array_equal(row, np.gcd(hs, r)), r
    assert acceptance._gcd_row(factorize(1), 1).tolist() == [1]


def test_criterion_09_rejects_a_gcd_row_of_ones(monkeypatch):
    # a row of ones passes every bound (each sum is H <= H tau(r)), so only
    # the comparison with oracles.gcd_power_sum sees it: at r = 2 the even
    # h have gcd 2, and the sigma = 1 sum of H = 10 is 15, not 10
    monkeypatch.setattr(acceptance, "_gcd_row",
                        lambda fm, H: np.ones(H, dtype=np.int64))
    result = acceptance.criterion_9_gcd_sums(H_max=10, r_max=200)
    assert not result.passed
    assert result.detail == "sigma=1 sum at r=2 H=10: 10.0 != oracle 15.0"


def test_criterion_10_monitors_report():
    # non-failing: hypothesis ratios, energy-theorem ratio, root-difference
    # margins and P(x) brackets are reported, each scan <= 10 min
    result = _run(10)
    assert result.monitor
    assert result.elapsed_s <= 600


def test_criterion_09_reports_the_failing_H(monkeypatch):
    # at r = 1 every gcd is 1, so each sigma sum is exactly H = rhs.  The
    # float sums are bumped within tolerance at H = 3 and past it at
    # H = 7: the criterion must name H = 7, the first H it rejects
    bump = np.ones(10)
    bump[2] = 1 + 5e-13
    bump[6] = 1 + 1e-9

    class BumpedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def cumsum(a):
            out = np.cumsum(a)
            return out * bump if out.dtype == np.float64 else out

    monkeypatch.setattr(acceptance, "np", BumpedNumpy())
    result = acceptance.criterion_9_gcd_sums(H_max=10, r_max=1)
    assert not result.passed
    assert result.detail == "sigma=0.2 fails at r=1 H=7"
