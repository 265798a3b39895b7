import math
from fractions import Fraction

import numpy as np
import pytest

from sievelab import sieve
from sievelab.acceptance import _totient_sum
from sievelab.oracles import ls_lhs_literal, px_count_literal
from sievelab.sieve import (ApproxFrame, BudgetExceeded, PxQuery,
                            SieveInstance, build_frame, dirichlet_approx,
                            double_sieve_check, ls_bound_table, ls_lhs,
                            ls_lhs_cost, propmain_bounds, px_cost, px_count,
                            px_monitor)


def make_instance(rng, N, Q, M=0):
    coeffs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return SieveInstance(M=M, coefficients=coeffs, Q=Q)


def test_classical_constant_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        N = int(rng.integers(1, 65))
        Q = int(rng.integers(1, 17))
        inst = make_instance(rng, N, Q, M=int(rng.integers(0, 100)))
        lhs = ls_lhs(inst, moduli="classical")
        assert lhs <= (Q * Q + N - 1) * inst.Z * (1 + 1e-12)


def test_ls_lhs_single_frequency():
    # Q = 1: only a/q = 1/1, so the LHS is |sum a_n|^2
    inst = SieveInstance(M=0, coefficients=np.array([1.0, 1.0, 1.0]), Q=1)
    assert ls_lhs(inst) == pytest.approx(9.0)


def test_ls_lhs_shift_invariance_classical():
    # e(n a/q) only depends on n mod q, so shifting M by lcm leaves it fixed
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(12)
    a = ls_lhs(SieveInstance(M=0, coefficients=coeffs, Q=3))
    b = ls_lhs(SieveInstance(M=6, coefficients=coeffs, Q=3))
    assert a == pytest.approx(b)


def test_ls_lhs_reads_M_past_the_int64_range():
    # the sum at Q = 3 depends only on n mod 36, and 36 * 10^17 moves M
    # from either int64 edge to well inside the range
    coeffs = np.random.default_rng(6).standard_normal(5)
    M = 2 ** 63 - 1
    values = [ls_lhs(SieveInstance(M=m, coefficients=coeffs, Q=3),
                     moduli="squares")
              for m in (M, M - 36 * 10 ** 17, -M - 3, -M - 3 + 36 * 10 ** 17)]
    assert all(map(math.isfinite, values))
    assert values[0] == values[1] and values[2] == values[3]


def test_ls_lhs_budget():
    inst = SieveInstance(M=0, coefficients=np.ones(100), Q=30)
    with pytest.raises(BudgetExceeded):
        ls_lhs(inst, moduli="squares", budget=10)


class SieveStarted(Exception):
    pass


@pytest.mark.parametrize("moduli", ["classical", "squares"])
def test_ls_lhs_charges_its_bound_before_the_sieve(moduli, monkeypatch):
    # K = 30 * (5 + 1) bounds the sieve and the weight loop, and at most
    # min(N, K) = 100 class moduli each sum the 100 coefficients
    assert ls_lhs_cost(100, 30) == 180 + 100 * 100
    inst = SieveInstance(M=0, coefficients=np.ones(100), Q=30)

    def started(n):
        raise SieveStarted

    # the Mobius sieve is the first array ls_lhs builds
    monkeypatch.setattr(sieve, "_mobius", started)
    with pytest.raises(BudgetExceeded) as exc:
        ls_lhs(inst, moduli=moduli, budget=10179)
    assert (exc.value.cost, exc.value.budget) == (10180, 10179)
    with pytest.raises(SieveStarted):
        ls_lhs(inst, moduli=moduli, budget=10180)


def test_ls_lhs_reaches_the_cube_point_of_square_moduli():
    # N = Q^3 at Q = 60, where the literal sum needs about 9.6 * 10^9
    # phases, is charged 420 + 216000 * 420 < DEFAULT_BUDGET
    coeffs = np.random.default_rng(60).standard_normal(60 ** 3)
    inst = SieveInstance(M=0, coefficients=coeffs, Q=60)
    assert ls_lhs_cost(inst.N, 60) == 420 + 216000 * 420
    lhs = ls_lhs(inst, moduli="squares")
    # the fractions a/q^2 are distinct with denominators <= Q^2, so they
    # are 1/Q^4-spaced and the large sieve with constant N - 1 + Q^4 holds
    assert 0 < lhs <= (inst.N - 1 + 60 ** 4) * inst.Z


@pytest.mark.parametrize("moduli, cost", [("classical", 100 * 30 ** 2),
                                          ("squares", 100 * 30 ** 3)])
def test_ls_lhs_literal_keeps_the_per_phase_charge(moduli, cost):
    inst = SieveInstance(M=0, coefficients=np.ones(100), Q=30)
    with pytest.raises(BudgetExceeded) as exc:
        ls_lhs_literal(inst, moduli=moduli, budget=cost - 1)
    assert exc.value.cost == cost


def test_ls_lhs_matches_the_literal_sum_on_a_seeded_squares_grid():
    rng = np.random.default_rng(35)
    for Q, N in [(1, 1), (2, 5), (3, 36), (5, 125), (6, 216), (9, 40)]:
        inst = make_instance(rng, N, Q, M=int(rng.integers(-10 ** 6, 10 ** 6)))
        fast = ls_lhs(inst, moduli="squares")
        literal = ls_lhs_literal(inst, moduli="squares")
        assert abs(fast - literal) <= 1e-9 * _totient_sum(Q, True) * inst.Z


def test_ls_bound_table():
    table = ls_bound_table(5, 16)
    assert table["classical"] == 40
    assert table["conjecture"] == 141
    assert table["conditional_at_cube"] is None
    at_cube = ls_bound_table(5, 125)
    assert at_cube["conditional_at_cube"] == pytest.approx(5 ** (3.5 - 1 / 135))


def test_dirichlet_approx_basic():
    b, r, z = dirichlet_approx(Fraction(3, 10), 3)
    assert (b, r) == (1, 3)
    assert z == Fraction(3, 10) - Fraction(1, 3) == Fraction(-1, 30)


def test_dirichlet_approx_invariant():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = Fraction(int(rng.integers(0, 10 ** 6)), int(rng.integers(1, 10 ** 6)))
        tau = int(rng.integers(1, 1000))
        b, r, z = dirichlet_approx(x, tau)
        assert 1 <= r <= tau
        assert math.gcd(b, r) == 1 or b == 0
        assert abs(z) <= Fraction(1, r * tau)


def test_dirichlet_approx_exact_rational():
    b, r, z = dirichlet_approx(Fraction(2, 7), 10)
    assert (b, r, z) == (2, 7, 0)


def test_build_frame_and_j():
    frame = build_frame(Fraction(3, 10), 100)
    assert frame.r <= 10
    assert frame.z == frame.x - Fraction(frame.b, frame.r)
    if frame.r > 1:
        assert frame.j == (-pow(frame.b, -1, frame.r)) % frame.r


def test_approx_frame_validates():
    with pytest.raises(ValueError):
        ApproxFrame(Fraction(1, 2), 100, b=2, r=4, z=Fraction(0))
    with pytest.raises(ValueError):
        ApproxFrame(Fraction(1, 2), 100, b=1, r=3, z=Fraction(0))


def test_px_count_literal_window():
    # x = 1/2, Q = 1: q = 2, fractions a/4 with gcd(a,2)=1 within 1/8 of 1/2
    q = PxQuery(Fraction(1, 2), 1, Fraction(1, 8))
    # candidates 1/4, 3/4 are 1/4 away; 2/4 not reduced -> none... except
    # a <= q^2 includes a = 2? not coprime. so count is 0
    assert px_count(q) == 0
    q = PxQuery(Fraction(1, 2), 1, Fraction(1, 4))
    assert px_count(q) == 2  # 1/4 and 3/4 at distance exactly 1/4


def test_px_count_wraparound():
    # x near 0 must see fractions just below 1
    q = PxQuery(Fraction(1, 100), 1, Fraction(1, 20))
    # q = 2: 1/4, 3/4 both far; count 0. circular distance from 3/4 is 0.26
    assert px_count(q) == 0
    q2 = PxQuery(Fraction(0), 2, Fraction(1, 16))
    # q in (3, 4): fractions a/9 and a/16 within 1/16 of 0 (circularly)
    # a/9: none with gcd(a,3)=1 within 9/16... |a/9| <= 1/16 -> none; 8/9 is
    # 1/9 away (> 1/16). a/16: 1/16 and 15/16 qualify exactly
    assert px_count(q2) == 2


def test_px_count_budget():
    with pytest.raises(BudgetExceeded):
        px_count(PxQuery(Fraction(1, 3), 100, Fraction(1, 2)), budget=5)


PX_GRID_X = (Fraction(0), Fraction(1, 2), Fraction(3, 10), Fraction(-7, 10),
             Fraction(13, 10), Fraction(5, 2), 0.3)
PX_GRID_DELTA = (Fraction(1, 512), Fraction(1, 64), Fraction(1, 8),
                 Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(2))


@pytest.mark.parametrize("delta", PX_GRID_DELTA, ids=str)
def test_px_count_equals_the_literal_count_on_a_fixed_grid(delta):
    # x = 1/2 and 0 put fractions at distance exactly Delta (1/4, 1/8, ...);
    # Delta >= 1/2 makes the windows around x - 1, x, x + 1 overlap
    for x in PX_GRID_X:
        for Q in range(1, 13):
            query = PxQuery(x, Q, delta)
            assert px_count(query) == px_count_literal(query), (x, Q)


@pytest.mark.parametrize("count", [px_count, px_count_literal])
def test_px_count_is_periodic_in_x(count):
    for x in (Fraction(1, 2), Fraction(3, 10), 0.3):
        want = count(PxQuery(x, 8, Fraction(1, 64)))
        assert want > 0
        for n in (-3, -1, 1, 2, 5):
            assert count(PxQuery(x + n, 8, Fraction(1, 64))) == want, (x, n)


def test_px_count_charges_its_bound_before_counting():
    # 2^omega(q) <= 2^3 for every q <= 2Q = 60 < 2*3*5*7
    assert px_cost(30) == 30 * 8
    with pytest.raises(BudgetExceeded):
        px_count(PxQuery(Fraction(1, 3), 30, Fraction(1, 2)), budget=239)
    assert px_count(PxQuery(Fraction(1, 3), 30, Fraction(1, 2)),
                    budget=240) > 0


def test_px_monitor_keys():
    out = px_monitor(0.3, 8, 512)  # float 0.3: z is tiny but nonzero
    for key in ("count", "conj_ratio", "previous_ratio", "propmain_ratio"):
        assert key in out
    exact = px_monitor(Fraction(1, 3), 4, 100)
    if exact.get("z_zero"):
        assert "previous_ratio" not in exact


@pytest.mark.parametrize("N", [0, -4])
def test_frame_and_px_monitor_refuse_N_below_1(N):
    # the frame refuses N before px_monitor forms Delta = 1/N, so N = 0
    # raises no ZeroDivisionError
    with pytest.raises(ValueError, match="need N >= 1"):
        build_frame(Fraction(1, 3), N)
    with pytest.raises(ValueError, match="need N >= 1"):
        px_monitor(Fraction(1, 3), 4, N)


def test_propmain_regime_selection():
    out = propmain_bounds(10, 1e-3, 5)
    assert out["regime"] in (1, 2, 3, 4)
    assert out["bound"] == out["all_bounds"][out["regime"] - 1]
    t1, t2, t3 = out["thresholds"]
    assert t1 >= 0 and t2 >= 0 and t3 >= 0
    # the constants of all four brackets and thresholds, pinned: at
    # Q = 10, delta = 1e-3 each regime is reached at one r
    for r, regime in ((20, 1), (5, 2), (2, 3), (1, 4)):
        assert propmain_bounds(10, 1e-3, r)["regime"] == regime, r
    assert out["all_bounds"] == pytest.approx(
        (6.819861946909871, 10.694029247683254, 14.393564081728227,
         14.159360643709853), rel=1e-12)
    assert out["thresholds"] == pytest.approx(
        (13.219411484660286, 3.7503696379226916, 1.674482438011535),
        rel=1e-12)


def test_double_sieve_slack_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(100):
        na, nb = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        A, B = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
        res = double_sieve_check(
            rng.uniform(-A, A, na), rng.standard_normal(na),
            rng.uniform(-B, B, nb), rng.standard_normal(nb), A, B)
        assert res["slack"] >= -1e-9


def test_double_sieve_rejects_out_of_range():
    with pytest.raises(ValueError):
        double_sieve_check([2.0], [1.0], [0.0], [1.0], 1.0, 1.0)

