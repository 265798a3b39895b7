import itertools
import math

import numpy as np
import pytest

from sievelab.charsums import (S4_DIRECT_CAP, S4Input, TrigWeight,
                               cubic_form_charsum, s4_closed, s4_direct,
                               weighted_energy)
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


def test_s4_pairs_path_matches_loops():
    for r in (3, 5, 7):
        for h in ((1, 0, 0, 0), (1, 1, 1, 1), (1, 2, 3, 4)):
            inp = S4Input(2, h, r)
            assert abs(s4_direct(inp, via="pairs").value
                       - s4_direct(inp, via="loops").value) < 1e-9 * r ** 3


def test_s4_loops_budget():
    with pytest.raises(BudgetExceeded) as exc:
        s4_direct(S4Input(1, (1, 1, 1, 1), 151), via="loops")
    assert (exc.value.cost, exc.value.budget) == (151 ** 3, S4_DIRECT_CAP ** 3)


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
    with pytest.raises(ValueError):
        weighted_energy(3, 1, 9, TrigWeight.fejer(2))
    with pytest.raises(BudgetExceeded) as exc:
        weighted_energy(3, 1, 61, TrigWeight.fejer(2), budget=10)
    assert (exc.value.cost, exc.value.budget) == (61 ** 2, 10)
    # the cost is max(r^2, lattice size), refused only when it exceeds the budget
    weighted_energy(3, 1, 61, TrigWeight.fejer(2), budget=61 ** 2)
    with pytest.raises(BudgetExceeded):
        weighted_energy(3, 1, 61, TrigWeight.fejer(2), budget=61 ** 2 - 1)


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
