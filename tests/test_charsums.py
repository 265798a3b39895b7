import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sievelab.charsums import (S4Input, TrigWeight, cubic_form_charsum,
                               s4_closed, s4_closed_rows, s4_direct,
                               weighted_energy)
from sievelab.arith import DEFAULT_BUDGET, is_prime
from sievelab.sieve import BudgetExceeded


def test_trigweight_fejer():
    w = TrigWeight.fejer(3)
    assert w.coeffs == pytest.approx((1.0, 2 / 3, 1 / 3))
    assert w.width == 2
    assert w.c(-1) == w.c(1)
    assert w.c(5) == 0.0


def test_trigweight_phi_matches_expansion():
    w = TrigWeight.fejer(4)
    for y in (0.0, 0.17, 0.5, 0.99):
        expansion = sum(w.c(h) * complex(math.cos(2 * math.pi * h * y),
                                         math.sin(2 * math.pi * h * y))
                        for h in w.support())
        assert abs(w.phi(y) - expansion.real) < 1e-9
        assert abs(expansion.imag) < 1e-12


def test_trigweight_phi_takes_arrays():
    w = TrigWeight.fejer(4)
    ys = np.array([0.0, 0.17, 0.5, 0.99])
    assert w.phi(ys).tolist() == [w.phi(y) for y in ys]
    assert TrigWeight((0.5,)).phi(ys) == 0.5


@pytest.mark.parametrize("W", [2, 3, 5])
def test_trigweight_profile_is_the_fejer_triangle(W):
    # linear down to 0 at |t| = W, the last piece included
    w = TrigWeight.fejer(W)
    for t in [k / 2 for k in range(2 * W + 3)]:
        want = max(0.0, 1 - t / W)
        assert w.profile(t) == pytest.approx(want, abs=1e-15), t
        assert w.profile(-t) == w.profile(t)


def test_trigweight_validates():
    with pytest.raises(ValueError):
        TrigWeight(())
    with pytest.raises(ValueError):
        TrigWeight((1.0, 1.5))
    with pytest.raises(ValueError):
        TrigWeight.fejer(0)


def test_s4input_validates():
    with pytest.raises(ValueError):
        S4Input(1, (0, 0, 0, 0), 9)   # not prime
    with pytest.raises(ValueError):
        S4Input(1, (0, 0, 0, 0), 2)   # even
    with pytest.raises(ValueError):
        S4Input(7, (0, 0, 0, 0), 7)   # gcd(j, r) != 1


def test_s4_all_zero_h():
    for r in (3, 5, 7):
        inp = S4Input(1, (0, 0, 0, 0), r)
        assert abs(s4_direct(inp).value - r ** 3) < 1e-9
        assert s4_closed(inp).value == r ** 3


def test_s4_closed_full_sweep_small():
    for r in (3, 5):
        for j in (1, 2):
            for h in itertools.product(range(r), repeat=4):
                inp = S4Input(j, h, r)
                c = s4_closed(inp).value
                d = s4_direct(inp).value
                assert abs(c - d) <= 1e-9 * r ** 3, (r, j, h)


def test_s4_closed_degenerate_rows():
    # the gamma-tilde / gamma-hat r^2 rows: h1 = -h2, h3 = -h4, all nonzero
    r = 5
    inp = S4Input(1, (1, 4, 2, 3), r)
    assert abs(s4_closed(inp).value - r * r) < 1e-9
    # one entry of a pair zero (drops out of the simplified generic formula)
    inp = S4Input(1, (0, 0, 0, 1), r)
    assert abs(s4_closed(inp).value - s4_direct(inp).value) < 1e-9 * r ** 3


def test_s4_symmetries():
    r = 7
    base = s4_closed(S4Input(3, (1, 2, 3, 4), r)).value
    assert abs(s4_closed(S4Input(3, (2, 1, 3, 4), r)).value - base) < 1e-9
    assert abs(s4_closed(S4Input(3, (1, 2, 4, 3), r)).value - base) < 1e-9
    swapped = s4_closed(S4Input(3, (3, 4, 1, 2), r)).value
    assert abs(swapped - base) < 1e-9


@pytest.mark.parametrize("r", [3, 7, 13, 31, 101])
def test_s4_closed_rows_equals_one_row_calls(r):
    # rows with negative entries and entries >= r share pair profiles
    # across residues; every value equals the one-row call exactly
    rng = np.random.default_rng(r)
    rows = [tuple(int(x) for x in rng.integers(-2 * r, 3 * r, 4))
            for _ in range(400)]
    rows += [(0, 0, 0, 0), (1, -1, 0, 0), (0, r, 0, 1), (1, r - 1, 2, -2)]
    for j in sorted({1, 2, r - 1}):
        values = list(s4_closed_rows(j, r, rows))
        assert len(values) == len(rows)
        for h, v in zip(rows, values):
            assert v == s4_closed(S4Input(j, h, r)).value, (j, h)
    assert list(s4_closed_rows(1, r, [])) == []


def test_s4_closed_rows_validates_on_the_call_and_streams():
    # (j, r) is refused before any row is read; the values are yielded
    # as rows arrive, so an endless row stream is fine
    with pytest.raises(ValueError, match="odd prime"):
        s4_closed_rows(1, 9, [(0, 0, 0, 0)])
    with pytest.raises(ValueError, match="gcd"):
        s4_closed_rows(7, 7, [(0, 0, 0, 0)])
    endless = ((h, 0, 0, 1) for h in itertools.count())
    first = list(itertools.islice(s4_closed_rows(1, 7, endless), 8))
    assert first == [s4_closed(S4Input(1, (h, 0, 0, 1), 7)).value
                     for h in range(8)]


#: s4_closed at r = 4294967311, where r^2 > 2^63, as the repr of each
#: value (bit-exact, signed zeros included): every residue in the closed
#: form is a Python int, so r past int64 keeps working
S4_LARGE_R = 4294967311
S4_LARGE_R_VALUES = {
    (2, (1, 2, 3, 4)): "(-0-281474978185216j)",
    (2, (0, 0, 0, 1)): "1.2089258301699408e+24j",
    (2, (1, -1, 2, -2)): "(1.844674420255857e+19+0j)",
    (2, (0, 0, 0, 0)): "(7.922816334436782e+28+0j)",
    (2, (-5, S4_LARGE_R + 7, 11, 3 * S4_LARGE_R - 13)): "(-0-281474978185216j)",
    (S4_LARGE_R - 1, (1, 2, 3, 4)): "281474978185216j",
    (S4_LARGE_R - 1, (0, 0, 0, 1)): "-1.2089258301699408e+24j",
}


def test_s4_closed_large_modulus():
    for (j, h), want in S4_LARGE_R_VALUES.items():
        assert repr(s4_closed(S4Input(j, h, S4_LARGE_R)).value) == want, (j, h)
    rows = [h for j, h in S4_LARGE_R_VALUES if j == 2]
    assert [repr(v) for v in s4_closed_rows(2, S4_LARGE_R, rows)] == [
        S4_LARGE_R_VALUES[2, h] for h in rows]


def test_weighted_energy_spectral_is_pinned():
    # the values a per-row closed form gave, summed in lattice order:
    # sharing pair profiles across rows must not move a bit
    for (r, R, j, width), want in (((13, 5, 2, 2), 14.598375711855846),
                                   ((31, 10, 3, 4), 395.25884495317376),
                                   ((61, 20, 7, 5), 1366.3459523122913)):
        out = weighted_energy(R, j, r, TrigWeight.fejer(width))
        assert out["spectral"] == want, (r, R, j, width)


def test_weighted_energy_paths_agree():
    for (r, R, j, width) in ((5, 2, 1, 3), (13, 5, 2, 2), (31, 10, 3, 5),
                             (61, 60, 1, 4)):
        out = weighted_energy(R, j, r, TrigWeight.fejer(width))
        assert out["rel_error"] < 1e-6


def test_weighted_energy_constant_weight():
    # support only at h = 0: both paths reduce to (c0 R/r)^4 r^3
    r, R = 7, 3
    w = TrigWeight((1.0,))
    out = weighted_energy(R, 1, r, w)
    want = (R / r) ** 4 * r ** 3
    assert out["direct"] == pytest.approx(want)
    assert out["spectral"] == pytest.approx(want)


def test_weighted_energy_validates():
    with pytest.raises(ValueError, match="odd prime"):
        weighted_energy(3, 1, 9, TrigWeight.fejer(2))
    # j must be a unit mod r, as in S4, and that is checked before the budget
    for j in (7, 14, -7, 0):
        with pytest.raises(ValueError, match=r"need gcd\(j, r\) = 1"):
            weighted_energy(5, j, 7, TrigWeight.fejer(2), budget=1)
    # the cost is max(r (width + ceil(log2 r)), lattice size): fejer(2) has
    # width 1 and a 3^4 lattice, so at r = 61 it is 61 * (1 + 6)
    cost = 61 * (1 + 6)
    with pytest.raises(BudgetExceeded) as exc:
        weighted_energy(3, 1, 61, TrigWeight.fejer(2), budget=10)
    assert (exc.value.cost, exc.value.budget) == (cost, 10)
    # refused only when it exceeds the budget
    weighted_energy(3, 1, 61, TrigWeight.fejer(2), budget=cost)
    with pytest.raises(BudgetExceeded):
        weighted_energy(3, 1, 61, TrigWeight.fejer(2), budget=cost - 1)
    # a budget that admits r^2 >= 2^63 meets the int64 refusal instead
    with pytest.raises(ValueError, match=r"r\^2 must be < 2\^63"):
        weighted_energy(3, 1, 3037000507, TrigWeight.fejer(2), budget=10 ** 12)


def test_weighted_energy_paths_agree_at_large_r():
    # the direct side's pair sums come from one transform, not r^2 scatters
    for r in (1009, 4099):
        out = weighted_energy(40, 2, r, TrigWeight.fejer(2))
        assert out["rel_error"] < 1e-12, r


def test_weighted_energy_direct_side_allocates_no_r_by_r_table():
    # an r x r pair table at r = 4099 would take about 134 MB per array
    tracemalloc.start()
    try:
        weighted_energy(40, 2, 4099, TrigWeight.fejer(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_s4_direct_charges_a_transform_not_r_squared():
    # r^2 > 10^9 at r = 40009, but two length-r transforms are cheap
    r = 40009
    for h in ((1, 2, 3, 4), (0, 0, 0, 1), (1, -1, 2, 5)):
        inp = S4Input(1, h, r)
        assert abs(s4_direct(inp).value - s4_closed(inp).value) < 1e-9 * r ** 3
    # the first prime r with r * ceil(log2 r) > DEFAULT_BUDGET is refused
    # before any table is built
    r = next(n for n in range(DEFAULT_BUDGET // 26 | 1, 2 ** 26, 2)
             if n * 26 > DEFAULT_BUDGET and is_prime(n))
    with pytest.raises(BudgetExceeded) as exc:
        s4_direct(S4Input(1, (1, 2, 3, 4), r))
    assert (exc.value.cost, exc.value.budget) == (r * 26, DEFAULT_BUDGET)


def test_cubic_form_small():
    out = cubic_form_charsum(1, 7, TrigWeight.fejer(2))
    assert abs(out["value"]) <= out["bound"]
    assert out["margin"] == pytest.approx(abs(out["value"]) / out["bound"])


def test_cubic_form_sqrt_margin():
    r = 101
    out = cubic_form_charsum(math.isqrt(r), r, TrigWeight.fejer(2))
    assert "sqrt_margin" in out
    assert out["sqrt_margin"] == pytest.approx(abs(out["value"]) / r ** 1.75)


def test_cubic_form_budget():
    with pytest.raises(BudgetExceeded) as exc:
        cubic_form_charsum(50, 101, TrigWeight.fejer(5), budget=100)
    # M * width = 200, so the lattice has 401^4 points
    assert (exc.value.cost, exc.value.budget) == (401 ** 4, 100)
