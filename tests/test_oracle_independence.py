"""Each oracle stays off the kernel of the fast path it checks.

Every oracle lives in sievelab.oracles, and the import rule in
tests/test_imports_used.py pins what that module may import: a few
standard modules, numpy, and BudgetExceeded, DEFAULT_BUDGET and
mod_inverse from arith; no fast module.  The fixtures here check the
same at run time, from the other side: with a fast path's kernel patched
to raise wherever it is bound, the oracle must still return and the fast
path must raise, so a later speed-up cannot route an oracle through the
path it checks.  The pairs:

- complete sums: every fast sum gathers e_q(t) from expsums.unit_phases,
  every scalar oracle evaluates oracles.e_frac term by term;
- large-sieve sums: ls_lhs sums residue classes with the weights of
  sieve._class_weights and forms no phase, oracles.ls_lhs_literal
  gathers e(na/d) from exponentials of its own and reads neither
  the weights nor unit_phases;
- energies: conv self-convolves (_self_convolve) and sums the squared bins
  with a certified int64 dot (_square_sum), brute enumerates every pair
  sum (oracles._dense_pair_hist); energy_e2_e4 reads both E2 and E4 of
  one side from one first pass, so neither side reaches the other's; the
  ladders' conv side turns the builder's increments into energies on one
  path per rung, levelled (_levelled_bins) past one rung where that pass
  applies and _self_convolve on each rung's cumulative multiset
  otherwise, and their brute side runs the oracle rung by rung;
- root multisets: for both kinds the oracle (oracles.root_multiset)
  squares every residue (oracles._square_groups) and the fast builder
  solves: sqrt_mod_all per m, or, at R >= _ARRAY_MIN_R, the array solver
  sqrtmod._residue_roots;
- root-difference sums: the bare oracle squares every residue
  (oracles._square_groups), the paired fast path reads the bulk root table
  built by root_pairs; neither calls the solver sqrt_mod_all;
- the bulk root tables (root_pairs) square every residue and share
  nothing with the array solver sqrtmod._prime_power_residue_roots, which
  criterion 1 checks against them; the squaring oracles above run with
  the solver patched too, so none reaches it;
- 32-bit residue kernels: the fast tables and sums choose their dtype,
  signed or unsigned, and refuse n^2 >= 2^63 by one rule,
  sqrtmod._residue_dtype, which no oracle consults;
- factorization: the squaring oracles (both multiset kinds, brute E2, E4
  and F2, bare esum_jh) run with factorize patched, and so does their one
  size refusal, in oracles._square_groups, which therefore comes before
  any work.  Their fast twins factorize r, except paired esum_jh, whose
  root table squares;
- window counts P(x): px_count counts the units of each window by
  inclusion-exclusion (sieve._units_between) over the primes of
  arith.factorize(q), oracles.px_count_literal enumerates the window with
  math.gcd and Fraction and calls neither.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from sievelab import arith, energies, expsums, oracles, sieve, sqrtmod
from sievelab.charsums import S4Input, s4_closed, s4_closed_rows, s4_direct
from sievelab.energies import (energy_e2, energy_e2_e4, energy_e2_e4_ladder,
                               energy_e4, energy_f2, energy_f2_ladder)
from sievelab.expsums import (RationalFunctionModP, esum_jh, gauss_sum_closed,
                              gauss_sum_direct, gcal, rational_expsum)
from sievelab.oracles import (gcal_literal, ls_lhs_literal, px_count_literal,
                              rational_literal)
from sievelab.sieve import PxQuery, SieveInstance, ls_lhs, px_count


class KernelCalled(Exception):
    pass


def _kernel_called(*args, **kwargs):
    raise KernelCalled


def _patch_everywhere(monkeypatch, module, attr):
    """Make module.attr raise in every sievelab namespace that binds it."""
    kernel = getattr(module, attr)
    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sievelab" and \
                getattr(mod, attr, None) is kernel:
            monkeypatch.setattr(mod, attr, _kernel_called)
            patched.add(name)
    return patched


@pytest.fixture
def no_phase_table(monkeypatch):
    patched = _patch_everywhere(monkeypatch, expsums, "unit_phases")
    assert {"sievelab.expsums", "sievelab.charsums"} <= patched


@pytest.fixture
def no_solver(monkeypatch):
    patched = _patch_everywhere(monkeypatch, sqrtmod, "sqrt_mod_all")
    # the root-difference sums bind no solver at all
    assert "sievelab.sqrtmod" in patched and "sievelab.expsums" not in patched
    _patch_everywhere(monkeypatch, sqrtmod, "root_pairs")
    assert _patch_everywhere(monkeypatch, sqrtmod,
                             "_residue_roots") == {"sievelab.sqrtmod"}
    # criterion 1 binds the array solver too, to check it against root_pairs
    patched = _patch_everywhere(monkeypatch, sqrtmod,
                                "_prime_power_residue_roots")
    assert patched - {"sievelab.acceptance"} == {"sievelab.sqrtmod"}


ORACLES = {
    "gauss_sum_closed": lambda: gauss_sum_closed(45, 2, 3),
    "esum_jh bare": lambda: esum_jh(3, 5, 2, 1, 45, form="bare"),
    "s4_closed": lambda: s4_closed(S4Input(2, (1, 2, 3, 4), 7)),
    "s4_closed_rows": lambda: list(s4_closed_rows(2, 7, [(1, 2, 3, 4),
                                                         (0, 5, -1, 9)])),
    "gcal literal": lambda: gcal_literal(45, 1, 2, 1, 3, 4, 2),
    "rational literal": lambda: rational_literal((1, 0, 1), (0, 1), 13),
    "ls_lhs literal": lambda: [
        ls_lhs_literal(SieveInstance(0, np.ones(8), 3), moduli=moduli)
        for moduli in ("classical", "squares")],
}

FAST_PATHS = {
    "gauss_sum_direct": lambda: gauss_sum_direct(45, 2, 3),
    "esum_jh paired": lambda: esum_jh(3, 5, 2, 1, 45, form="paired"),
    "gcal": lambda: gcal(45, 1, 2, 1, 3, 4, 2),
    "rational_expsum": lambda: rational_expsum(
        RationalFunctionModP((1, 0, 1), (0, 1), 13)),
    "s4_direct pairs": lambda: s4_direct(S4Input(2, (1, 2, 3, 4), 7)),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_does_not_use_the_phase_table(name, no_phase_table):
    assert ORACLES[name]() is not None


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
def test_fast_path_uses_the_phase_table(name, no_phase_table):
    with pytest.raises(KernelCalled):
        FAST_PATHS[name]()


ENERGIES = {
    "E2": lambda method: energy_e2(8, 2, 21, method),
    "E4": lambda method: energy_e4(8, 2, 21, method),
    "E2 E4": lambda method: energy_e2_e4(8, 2, 21, method)[0],
    "F2": lambda method: energy_f2(8, 2, 1, 21, method),
}


@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_brute_energy_does_not_convolve(name, monkeypatch):
    monkeypatch.setattr(energies, "_self_convolve", _kernel_called)
    assert ENERGIES[name]("brute").energy > 0
    with pytest.raises(KernelCalled):
        ENERGIES[name]("conv")


@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_brute_energy_does_not_use_the_certified_dot(name, monkeypatch):
    monkeypatch.setattr(energies, "_square_sum", _kernel_called)
    assert ENERGIES[name]("brute").energy > 0
    with pytest.raises(KernelCalled):
        ENERGIES[name]("conv")


@pytest.mark.parametrize("name", sorted(ENERGIES))
def test_conv_energy_does_not_enumerate_pairs(name, monkeypatch):
    monkeypatch.setattr(oracles, "_dense_pair_hist", _kernel_called)
    assert ENERGIES[name]("conv").energy > 0
    with pytest.raises(KernelCalled):
        ENERGIES[name]("brute")


LADDERS = {
    "E2 E4": lambda method: energy_e2_e4_ladder(range(1, 9), 2, 21, method),
    "F2": lambda method: energy_f2_ladder(range(1, 9), 2, 1, 21, method),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_brute_ladder_does_not_reach_the_fast_passes(name, monkeypatch):
    for kernel in ("_levelled_bins", "_self_convolve", "_square_sum"):
        monkeypatch.setattr(energies, kernel, _kernel_called)
    assert len(LADDERS[name]("brute")) == 8
    with pytest.raises(KernelCalled):
        LADDERS[name]("conv")


def _multiset(kind, build):
    h = None if kind == "plain" else 1
    return build(8, 2, 21, h)


@pytest.mark.parametrize("kind", ["plain", "difference"])
def test_squaring_builder_does_not_use_the_solver(kind, no_solver):
    keys, _ = _multiset(kind, oracles.root_multiset)
    assert keys.size > 0


@pytest.mark.parametrize("kind", ["plain", "difference"])
def test_solver_builder_uses_the_solver(kind, no_solver, monkeypatch):
    # both regimes of the fast builder: per m and one array pass
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(sqrtmod, "_ARRAY_MIN_R", threshold)
        with pytest.raises(KernelCalled):
            _multiset(kind, sqrtmod.build_root_multiset)


def test_bare_esum_does_not_use_the_solver_or_the_root_table(no_solver):
    assert ORACLES["esum_jh bare"]().terms > 0


def test_paired_esum_uses_the_root_table(no_solver):
    with pytest.raises(KernelCalled):
        FAST_PATHS["esum_jh paired"]()


@pytest.fixture
def no_width_predicate(monkeypatch):
    patched = _patch_everywhere(monkeypatch, sqrtmod, "_residue_dtype")
    assert {"sievelab.sqrtmod", "sievelab.expsums"} <= patched
    # cached unit tables would skip the width rule
    expsums._unit_inverses.cache_clear()
    yield
    expsums._unit_inverses.cache_clear()


WIDTH_ORACLES = dict(ORACLES, **{
    "E2 brute": lambda: ENERGIES["E2"]("brute"),
    "E4 brute": lambda: ENERGIES["E4"]("brute"),
    "F2 brute": lambda: ENERGIES["F2"]("brute"),
})

WIDTH_FAST_PATHS = {
    "root_pairs": lambda: sqrtmod.root_pairs(45),
    "gauss_sum_direct": FAST_PATHS["gauss_sum_direct"],
    "esum_jh paired": FAST_PATHS["esum_jh paired"],
    "gcal": FAST_PATHS["gcal"],
    "rational_expsum": FAST_PATHS["rational_expsum"],
    "s4_direct pairs": FAST_PATHS["s4_direct pairs"],
}


@pytest.mark.parametrize("name", sorted(WIDTH_ORACLES))
def test_oracle_does_not_use_the_width_predicate(name, no_width_predicate):
    assert WIDTH_ORACLES[name]() is not None


@pytest.mark.parametrize("name", sorted(WIDTH_FAST_PATHS))
def test_fast_path_uses_the_width_predicate(name, no_width_predicate):
    with pytest.raises(KernelCalled):
        WIDTH_FAST_PATHS[name]()


#: each squaring oracle and its fast twin, as functions of r
SQUARING_ORACLES = {
    "plain multiset": (
        lambda r: oracles.root_multiset(8, 1, r),
        lambda r: sqrtmod.build_root_multiset(8, 1, r)),
    "difference multiset": (
        lambda r: oracles.root_multiset(8, 1, r, 1),
        lambda r: sqrtmod.build_root_multiset(8, 1, r, 1)),
    "E2 brute": (lambda r: energy_e2(8, 1, r, "brute"),
                 lambda r: energy_e2(8, 1, r, "conv")),
    "E4 brute": (lambda r: energy_e4(8, 1, r, "brute"),
                 lambda r: energy_e4(8, 1, r, "conv")),
    "E2 E4 brute": (lambda r: energy_e2_e4(8, 1, r, "brute"),
                    lambda r: energy_e2_e4(8, 1, r, "conv")),
    "F2 brute": (lambda r: energy_f2(8, 1, 1, r, "brute"),
                 lambda r: energy_f2(8, 1, 1, r, "conv")),
    "E2 E4 ladder brute": (
        lambda r: energy_e2_e4_ladder(range(1, 9), 1, r, "brute"),
        lambda r: energy_e2_e4_ladder(range(1, 9), 1, r, "conv")),
    "F2 ladder brute": (
        lambda r: energy_f2_ladder(range(1, 9), 1, 1, r, "brute"),
        lambda r: energy_f2_ladder(range(1, 9), 1, 1, r, "conv")),
    "esum_jh bare": (lambda r: esum_jh(3, 5, 1, 1, r, form="bare"),
                     lambda r: esum_jh(3, 5, 1, 1, r, form="paired")),
}

#: moduli above the squaring bound 2^20
HUGE_MODULI = (2 ** 20 + 1, 2 ** 63)


@pytest.fixture
def no_factorize(monkeypatch):
    patched = _patch_everywhere(monkeypatch, arith, "factorize")
    assert {"sievelab.arith", "sievelab.sqrtmod"} <= patched
    # sqrt_mod_all factorizes on a memo miss only; no root set is cached
    # while factorize raises
    sqrtmod._sqrt_mod_all.cache_clear()


@pytest.mark.parametrize("name", sorted(SQUARING_ORACLES))
def test_squaring_oracle_does_not_factorize(name, no_factorize):
    oracle, fast = SQUARING_ORACLES[name]
    assert oracle(21) is not None
    if name == "esum_jh bare":
        # paired esum_jh reads root_pairs, which squares every residue
        assert fast(21).terms > 0
        return
    with pytest.raises(KernelCalled):
        fast(21)


@pytest.mark.parametrize("name", sorted(SQUARING_ORACLES))
def test_squaring_oracle_refuses_a_huge_modulus_before_any_work(
        name, no_factorize, monkeypatch):
    oracle, _ = SQUARING_ORACLES[name]
    for r in HUGE_MODULI:
        with pytest.raises(ValueError) as refusal:
            oracle(r)
        assert str(refusal.value) == (
            f"r = {r} too large for the squaring oracle: it "
            "squares every residue mod r, so r must be <= 1048576")
    # r = 2^20 itself passes the bound and starts squaring
    oracles._square_groups.cache_clear()
    monkeypatch.setattr(oracles, "mod_inverse", _kernel_called)
    with pytest.raises(KernelCalled):
        oracle(2 ** 20)


def test_literal_window_count_does_not_use_inclusion_exclusion(monkeypatch):
    assert _patch_everywhere(monkeypatch, sieve,
                             "_units_between") == {"sievelab.sieve"}
    assert "sievelab.sieve" in _patch_everywhere(monkeypatch, arith,
                                                 "factorize")
    query = PxQuery(Fraction(3, 10), 8, Fraction(1, 64))
    assert px_count_literal(query) > 0
    with pytest.raises(KernelCalled):
        px_count(query)


@pytest.mark.parametrize("moduli", ["classical", "squares"])
def test_fast_lhs_uses_the_class_weights(moduli, monkeypatch):
    assert _patch_everywhere(monkeypatch, sieve,
                             "_class_weights") == {"sievelab.sieve"}
    inst = SieveInstance(0, np.ones(8), 3)
    assert ls_lhs_literal(inst, moduli=moduli) > 0
    with pytest.raises(KernelCalled):
        ls_lhs(inst, moduli=moduli)
