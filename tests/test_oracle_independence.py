"""Each oracle stays off the kernel of the fast path it checks.

Every oracle lives in sievelab.oracles, and the import rule in
tests/test_imports_used.py pins what that module may import: a few
standard modules, numpy, and BudgetExceeded and DEFAULT_BUDGET from
arith; no fast module and no modular inverse.  The fixtures here check
the same at run time, from the other side: with a fast path's kernel
patched to raise wherever it is bound, the oracle must still return and
the fast path must raise, so a later speed-up cannot route an oracle
through the path it checks.  The calls, and which of them is an oracle,
a phase-table or width-rule fast path, a squaring oracle and its twin,
or an energy or ladder with its two methods, are the rows and roles of
the registry tests/kernels.py.  The pairs:

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
  reads the roots of jm from the table of squares mod r
  (oracles._square_groups, every residue squared once per r, no inverse
  of j) and the fast builder solves: sqrt_mod_all per m, or, at
  R >= _ARRAY_MIN_R, the array solver sqrtmod._residue_roots;
- root-difference sums: the bare oracle reads the same table of squares
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
  any residue is squared (a raising range in the oracles module marks the
  first).  Their fast twins factorize r, except paired esum_jh, whose
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

from kernels import KERNELS, names
from sievelab import arith, energies, expsums, oracles, sieve, sqrtmod
from sievelab.oracles import ls_lhs_literal, px_count_literal
from sievelab.sieve import PxQuery, SieveInstance, ls_lhs, px_count


class KernelCalled(Exception):
    pass


def kernel_called(*args, **kwargs):
    raise KernelCalled


@pytest.fixture
def no_phase_table(patch_everywhere):
    patched = patch_everywhere(expsums, "unit_phases", kernel_called)
    assert {"sievelab.expsums", "sievelab.charsums"} <= patched


@pytest.fixture
def no_solver(patch_everywhere):
    patched = patch_everywhere(sqrtmod, "sqrt_mod_all", kernel_called)
    # the root-difference sums bind no solver at all
    assert "sievelab.sqrtmod" in patched and "sievelab.expsums" not in patched
    patch_everywhere(sqrtmod, "root_pairs", kernel_called)
    assert patch_everywhere(sqrtmod, "_residue_roots",
                            kernel_called) == {"sievelab.sqrtmod"}
    # criterion 1 binds the array solver too, to check it against root_pairs
    patched = patch_everywhere(sqrtmod, "_prime_power_residue_roots",
                               kernel_called)
    assert patched - {"sievelab.acceptance"} == {"sievelab.sqrtmod"}


@pytest.mark.parametrize("name", names("oracle"))
def test_oracle_does_not_use_the_phase_table(name, no_phase_table):
    assert KERNELS[name]() is not None


@pytest.mark.parametrize("name", names("phase"))
def test_fast_path_uses_the_phase_table(name, no_phase_table):
    with pytest.raises(KernelCalled):
        KERNELS[name]()


def least_energy(name, method):
    """The least energy of the reports of row name's call by method."""
    result = KERNELS[name](method=method)
    return min(report.energy for report in
               (result if isinstance(result, tuple) else [result]))


@pytest.mark.parametrize("name", names("energy"))
def test_brute_energy_does_not_convolve(name, monkeypatch):
    monkeypatch.setattr(energies, "_self_convolve", kernel_called)
    assert least_energy(name, "brute") > 0
    with pytest.raises(KernelCalled):
        KERNELS[name](method="conv")


@pytest.mark.parametrize("name", names("energy"))
def test_brute_energy_does_not_use_the_certified_dot(name, monkeypatch):
    monkeypatch.setattr(energies, "_square_sum", kernel_called)
    assert least_energy(name, "brute") > 0
    with pytest.raises(KernelCalled):
        KERNELS[name](method="conv")


@pytest.mark.parametrize("name", names("energy"))
def test_conv_energy_does_not_enumerate_pairs(name, monkeypatch):
    monkeypatch.setattr(oracles, "_dense_pair_hist", kernel_called)
    assert least_energy(name, "conv") > 0
    with pytest.raises(KernelCalled):
        KERNELS[name](method="brute")


@pytest.mark.parametrize("name", names("ladder"),
                         ids=lambda name: name.removesuffix(" ladder"))
def test_brute_ladder_does_not_reach_the_fast_passes(name, monkeypatch):
    for kernel in ("_levelled_bins", "_self_convolve", "_square_sum"):
        monkeypatch.setattr(energies, kernel, kernel_called)
    assert len(KERNELS[name](method="brute")) == 8
    with pytest.raises(KernelCalled):
        KERNELS[name](method="conv")


@pytest.mark.parametrize("kind", ["plain", "difference"])
def test_squaring_builder_does_not_use_the_solver(kind, no_solver):
    keys, _ = KERNELS[f"{kind} multiset"]()
    assert keys.size > 0


@pytest.mark.parametrize("kind", ["plain", "difference"])
def test_solver_builder_uses_the_solver(kind, no_solver, monkeypatch):
    # both regimes of the fast builder: per m and one array pass
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(sqrtmod, "_ARRAY_MIN_R", threshold)
        with pytest.raises(KernelCalled):
            KERNELS[KERNELS[f"{kind} multiset"].twin]()


def test_bare_esum_does_not_use_the_solver_or_the_root_table(no_solver):
    assert KERNELS["esum_jh bare"]().terms > 0


def test_paired_esum_uses_the_root_table(no_solver):
    with pytest.raises(KernelCalled):
        KERNELS["esum_jh paired"]()


@pytest.fixture
def no_width_predicate(patch_everywhere, fresh_tables):
    # fresh_tables: a kept table would skip the width rule
    patched = patch_everywhere(sqrtmod, "_residue_dtype", kernel_called)
    assert {"sievelab.sqrtmod", "sievelab.expsums"} <= patched


@pytest.mark.parametrize("name", names("oracle"))
def test_oracle_does_not_use_the_width_predicate(name, no_width_predicate):
    assert KERNELS[name]() is not None


@pytest.mark.parametrize("name", names("width"))
def test_fast_path_uses_the_width_predicate(name, no_width_predicate):
    with pytest.raises(KernelCalled):
        KERNELS[name]()


#: moduli above the squaring bound 2^20
HUGE_MODULI = (2 ** 20 + 1, 2 ** 63)


@pytest.fixture
def no_factorize(patch_everywhere):
    patched = patch_everywhere(arith, "factorize", kernel_called)
    assert {"sievelab.arith", "sievelab.sqrtmod"} <= patched
    # sqrt_mod_all factorizes on a memo miss only; no root set is cached
    # while factorize raises
    sqrtmod._sqrt_mod_all.cache_clear()


@pytest.mark.parametrize("name", names("squaring"))
def test_squaring_oracle_does_not_factorize(name, no_factorize):
    fast = KERNELS[KERNELS[name].twin]
    assert KERNELS[name].at(21) is not None
    if name == "esum_jh bare":
        # paired esum_jh reads root_pairs, which squares every residue
        assert fast.at(21).terms > 0
        return
    with pytest.raises(KernelCalled):
        fast.at(21)


@pytest.mark.parametrize("name", names("squaring"))
def test_squaring_oracle_refuses_a_huge_modulus_before_any_work(
        name, no_factorize, monkeypatch):
    # the squaring loop of _square_groups is the first range the oracles
    # module calls, so a range that raises marks the first squared residue
    oracles._square_groups.cache_clear()
    monkeypatch.setattr(oracles, "range", kernel_called, raising=False)
    for r in HUGE_MODULI:
        with pytest.raises(ValueError) as refusal:
            KERNELS[name].at(r)
        assert str(refusal.value) == (
            f"r = {r} too large for the squaring oracle: it "
            "squares every residue mod r, so r must be <= 1048576")
    # r = 2^20 itself passes the bound and starts squaring
    with pytest.raises(KernelCalled):
        KERNELS[name].at(2 ** 20)


def test_literal_window_count_does_not_use_inclusion_exclusion(
        patch_everywhere):
    assert patch_everywhere(sieve, "_units_between",
                            kernel_called) == {"sievelab.sieve"}
    assert "sievelab.sieve" in patch_everywhere(arith, "factorize",
                                                kernel_called)
    query = PxQuery(Fraction(3, 10), 8, Fraction(1, 64))
    assert px_count_literal(query) > 0
    with pytest.raises(KernelCalled):
        px_count(query)


@pytest.mark.parametrize("moduli", ["classical", "squares"])
def test_fast_lhs_uses_the_class_weights(moduli, patch_everywhere):
    assert patch_everywhere(sieve, "_class_weights",
                            kernel_called) == {"sievelab.sieve"}
    inst = SieveInstance(0, np.ones(8), 3)
    assert ls_lhs_literal(inst, moduli=moduli) > 0
    with pytest.raises(KernelCalled):
        ls_lhs(inst, moduli=moduli)
