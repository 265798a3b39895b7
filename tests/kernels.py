"""The public kernels of sievelab: one table of calls, read by the tests.

Each row of KERNELS is one call of a kernel, named by its test ID:
- call(*ints) for each ints in grid: the integer arguments in order,
  nested in lists and tuples, with any other argument (a Fraction, a
  weight) fixed in grid or in a lambda.  The roles call grid[0];
- roles, from ROLES: "oracle" reads neither expsums.unit_phases nor the
  width rule sqrtmod._residue_dtype; a "phase" or "width" fast path reads
  the one or the other; a "squaring" oracle squares every residue mod r,
  refusing r > 2^20 first, and its twin row factorizes (both take r
  last, and j = 11, a unit mod every r they meet); an "energy" or
  "ladder" runs with method "conv" and "brute"; a "one read" energy
  reads the ladder's arguments itself;
- refusals: {test ID: (call, error, message)}, each one no other test
  reaches;
- xfail: why the row fails the integer-reading test today.
Readers: tests/test_oracle_independence.py and tests/test_energies.py
(roles), tests/test_refusals.py and tests/test_imports_used.py (every
row with an integer argument, and a row for every export of sievelab).
"""

import argparse
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from sievelab import (ApproxFrame, FactoredModulus, PxQuery,
                      RationalFunctionModP, S4Input, SieveInstance,
                      TrigWeight, build_frame, build_root_multiset,
                      build_root_multiset_ladder, cubic_form_charsum,
                      dirichlet_approx, double_sieve_check, energy_e2,
                      energy_e2_e4, energy_e2_e4_ladder, energy_e4, energy_f2,
                      energy_f2_ladder, eps_q, esum_jh, factorize,
                      gauss_sum_closed, gauss_sum_direct, gcal, gcal_bound,
                      gcd_power_sum, is_prime, jacobi, kssz_check,
                      ls_bound_table, ls_lhs, mod_inverse, propmain_bounds,
                      px_count, px_count_literal, px_monitor, rational_expsum,
                      root_pairs, s4_closed, s4_direct, sqrt_mod_all,
                      weighted_energy)
from sievelab.acceptance import run_suite
from sievelab.arith import BudgetExceeded
from sievelab.charsums import s4_closed_rows
from sievelab.cli import _parse_weight
from sievelab.oracles import (gcal_literal, ls_lhs_literal, rational_literal,
                              root_multiset)

ROLES = {"oracle", "phase", "width", "squaring", "energy", "ladder",
         "one read"}


class Kernel(NamedTuple):
    call: Callable
    grid: tuple
    roles: frozenset
    twin: str | None = None
    refusals: dict = {}
    xfail: str | None = None

    def __call__(self, **options):
        return self.call(*self.grid[0], **options)

    def at(self, r):
        """The call at grid[0] with r in place of its last argument."""
        return self.call(*self.grid[0][:-1], r)


def row(call, *grid, roles=(), **fields):
    return Kernel(call, grid or ((),), frozenset(roles), **fields)


RUNGS = list(range(1, 9))
FEJER = TrigWeight.fejer(2)
X = Fraction(1, 3)

KERNELS = {
    # arith
    "factorize": row(factorize, (360,), (999985999949,), (1,), refusals={
        "factorize past 2^63": (lambda: factorize(2 ** 63 + 1), ValueError,
                                "factorize caps n at 2^63")}),
    "is_prime": row(is_prime, (97,), (1,), (2 ** 31 - 1,)),
    "mod_inverse": row(mod_inverse, (3, 7), (1, 1)),
    "eps_q": row(eps_q, (7,), (1,), refusals={
        "eps_q at even q": (lambda: eps_q(4), ValueError,
                            "eps_q requires odd positive q")}),
    "jacobi": row(jacobi, (2, 7), xfail="ROADMAP item 24", refusals={
        "jacobi at even q": (lambda: jacobi(1, 4), ValueError,
                             "jacobi requires odd positive q")}),
    "FactoredModulus": row(FactoredModulus, (360, ((2, 3), (3, 2), (5, 1))),
                           refusals={
        "modulus below 1": (lambda: FactoredModulus(0, ()), ValueError,
                            "modulus must be >= 1"),
        "primes out of order": (
            lambda: FactoredModulus(15, ((5, 1), (3, 1))), ValueError,
            "primes must be strictly increasing")}),
    # sqrtmod
    "sqrt_mod_all": row(sqrt_mod_all, (4, 45), (0, 1)),
    "root_pairs": row(root_pairs, (45,), roles={"width"}),
    "build_root_multiset": row(build_root_multiset, (8, 11, 21),
                               (8, 1, 21, 1)),
    "build_root_multiset difference": row(
        lambda R, j, r: build_root_multiset(R, j, r, 1), (8, 11, 21)),
    "build_root_multiset_ladder": row(build_root_multiset_ladder,
                                      ([1, 3, 8], 1, 21, 1)),
    "plain multiset": row(root_multiset, (8, 11, 21),
                          roles={"oracle", "squaring"},
                          twin="build_root_multiset"),
    "difference multiset": row(
        lambda R, j, r: root_multiset(R, j, r, 1), (8, 11, 21),
        roles={"oracle", "squaring"}, twin="build_root_multiset difference"),
    # energies; each one's brute method is added below as its oracle
    "E2": row(energy_e2, (8, 11, 21), (1, 1, 1), roles={"energy"}, refusals={
        "unknown energy method": (lambda: energy_e2(3, 1, 35, method="bogus"),
                                  ValueError, "unknown method 'bogus'")}),
    "E4": row(energy_e4, (8, 11, 21), roles={"energy"}),
    "E2 E4": row(energy_e2_e4, (8, 11, 21), (1, 2, 35), roles={"energy"}),
    "F2": row(energy_f2, (8, 11, 1, 21), (2, 1, 0, 35), roles={"energy"}),
    "E2 E4 ladder": row(energy_e2_e4_ladder, (RUNGS, 11, 21),
                        roles={"ladder"}),
    "F2 ladder": row(energy_f2_ladder, (RUNGS, 11, 1, 21), roles={"ladder"}),
    # the one-read test's IDs number these six points in this order; the
    # one-rung E4 and F2 calls read through their ladders
    "energy_e2": row(energy_e2, (3, 2, 35), (40, 1, 1009), roles={"one read"}),
    "energy_e2_e4_ladder": row(energy_e2_e4_ladder, ([1, 3, 8], 2, 35),
                               ([8, 40], 1, 1009), roles={"one read"}),
    "energy_f2_ladder": row(energy_f2_ladder, ([2, 5], 1, 3, 35),
                            ([40], 1, 1, 1009), roles={"one read"}),
    "kssz_check": row(kssz_check, (97, 1, 4)),
    # expsums
    "gauss_sum_closed": row(gauss_sum_closed, (45, 2, 3), (35, 1, 0),
                            (45, 3, 6), roles={"oracle"}),
    "gauss_sum_direct": row(gauss_sum_direct, (45, 2, 3), (35, 1, 0),
                            roles={"phase", "width"}),
    "esum_jh paired": row(esum_jh, (3, 5, 11, 1, 45), (1, 2, 1, 1, 35),
                          (-5, 38, 11, -1, 45), roles={"phase", "width"}),
    "esum_jh bare": row(partial(esum_jh, form="bare"), (3, 5, 11, 1, 45),
                        (1, 2, 1, 1, 35), roles={"oracle", "squaring"},
                        twin="esum_jh paired"),
    "gcal": row(gcal, (45, 1, 2, 1, 3, 4, 2), (35, 1, 2, 1, 3, 2, 1),
                roles={"phase", "width"}),
    "gcal literal": row(lambda: gcal_literal(45, 1, 2, 1, 3, 4, 2),
                        roles={"oracle"}),
    "gcal_bound": row(gcal_bound, (9, 1, 2, 3, 4)),
    "RationalFunctionModP": row(
        lambda p: RationalFunctionModP((0, 1), (1,), p), (13,)),
    "rational_expsum": row(
        lambda p: rational_expsum(RationalFunctionModP((1, 0, 1), (0, 1), p)),
        (13,), roles={"phase", "width"}, refusals={
            "numerator zero mod p": (
                lambda: rational_expsum(RationalFunctionModP((7,), (1, 1), 7)),
                ValueError, "bound requires f nonconstant mod p")}),
    "rational literal": row(lambda: rational_literal((1, 0, 1), (0, 1), 13),
                            roles={"oracle"}),
    # charsums
    "S4Input": row(S4Input, (1, [1, 2, 3, 4], 13)),
    "s4_closed": row(lambda j, h, r: s4_closed(S4Input(j, h, r)),
                     (2, (1, 2, 3, 4), 7), (1, (1, 2, 3, 4), 13),
                     roles={"oracle"}),
    "s4_closed_rows": row(
        lambda j, r: list(s4_closed_rows(j, r, [(1, 2, 3, 4), (0, 5, -1, 9)])),
        (2, 7), (2, 13), roles={"oracle"}),
    "s4_direct pairs": row(lambda j, h, r: s4_direct(S4Input(j, h, r)),
                           (2, (1, 2, 3, 4), 7), (2, (0, 1, 5, 7), 13),
                           roles={"phase", "width"}),
    "weighted_energy": row(weighted_energy, (3, 1, 13, FEJER),
                           roles={"width"}),
    "cubic_form_charsum": row(cubic_form_charsum, (1, 13, FEJER)),
    "TrigWeight": row(TrigWeight.fejer, (3,)),
    # sieve
    "SieveInstance": row(SieveInstance, (0, np.ones(8), 3)),
    "ls_lhs": row(
        lambda M, Q: ls_lhs(SieveInstance(M, np.ones(8), Q)), (0, 3),
        refusals={"unknown moduli family": (
            lambda: ls_lhs(SieveInstance(0, [1.0], 2), moduli="bogus"),
            ValueError, "unknown moduli family 'bogus'")}),
    "ls_lhs literal": row(
        lambda M, Q: [ls_lhs_literal(SieveInstance(M, np.ones(8), Q), moduli=m)
                      for m in ("classical", "squares")], (0, 3),
        roles={"oracle"},
        refusals={"unknown moduli family of the literal sum": (
            lambda: ls_lhs_literal(SieveInstance(0, [1.0], 2), moduli="bogus"),
            ValueError, "unknown moduli family 'bogus'")}),
    "ls_bound_table": row(ls_bound_table, (4, 64), refusals={
        "bound table at Q = 0": (lambda: ls_bound_table(0, 5), ValueError,
                                 "Q and N must be >= 1")}),
    "PxQuery": row(PxQuery, (X, 8, Fraction(1, 64)), refusals={
        "px query with Delta = 0": (lambda: PxQuery(X, 4, Fraction(0)),
                                    ValueError, "Delta must be positive")}),
    "px_count": row(lambda Q: px_count(PxQuery(X, Q, Fraction(1, 64))), (8,)),
    "px_count_literal": row(
        lambda Q: px_count_literal(PxQuery(X, Q, Fraction(1, 64))), (8,),
        roles={"oracle"}, refusals={"px_count_literal over budget": (
            lambda: px_count_literal(PxQuery(X, 8, Fraction(1, 64)),
                                     budget=10), BudgetExceeded,
            "exceeds budget 10")}),
    "px_monitor": row(px_monitor, (X, 8, 512)),
    "build_frame": row(build_frame, (X, 512)),
    "dirichlet_approx": row(dirichlet_approx, (Fraction(2, 7), 8), refusals={
        "dirichlet_approx at tau = 0": (lambda: dirichlet_approx(X, 0),
                                        ValueError, "tau must be >= 1")}),
    "ApproxFrame": row(ApproxFrame, (X, 64, 1, 3, Fraction(0)), refusals={
        "frame with r > tau": (
            lambda: ApproxFrame(Fraction(1, 11), 100, b=1, r=11,
                                z=Fraction(0)),
            ValueError, "need 1 <= r <= tau"),
        "frame with |z| > 1/(r tau)": (
            lambda: ApproxFrame(Fraction(1, 2), 100, b=0, r=1,
                                z=Fraction(1, 2)),
            ValueError, "|z| must be <= 1/(r*tau)")}),
    "propmain_bounds": row(propmain_bounds, (4, 0.01, 3)),
    "gcd_power_sum": row(gcd_power_sum, (5, 12, Fraction(1, 2)), refusals={
        "gcd_power_sum at H = 0": (lambda: gcd_power_sum(0, 5, 1), ValueError,
                                   "H and r must be >= 1"),
        "gcd_power_sum at sigma = 0": (lambda: gcd_power_sum(5, 5, 0),
                                       ValueError, "sigma must lie in (0, 1]"),
        "gcd_power_sum at sigma > 1": (
            lambda: gcd_power_sum(5, 5, Fraction(3, 2)), ValueError,
            "sigma must lie in (0, 1]")}),
    "double_sieve_check": row(double_sieve_check, refusals={
        "double_sieve_check at A = 0": (
            lambda: double_sieve_check([0.0], [1.0], [0.5], [1.0], 0.0, 1.0),
            ValueError, "A and B must be positive"),
        "double_sieve_check at B = 0": (
            lambda: double_sieve_check([0.5], [1.0], [0.0], [1.0], 1.0, 0.0),
            ValueError, "A and B must be positive")}),
    # the CLI and the suite runner
    "_parse_weight": row(_parse_weight, refusals={
        "unknown weight": (lambda: _parse_weight("gauss:2"),
                           argparse.ArgumentTypeError,
                           "unknown weight 'gauss:2' (try fejer:<width>)"),
        "weight of width 0": (lambda: _parse_weight("fejer:0"),
                              argparse.ArgumentTypeError,
                              "width must be >= 1")}),
    "run_suite": row(run_suite, refusals={
        "unknown suite": (lambda: run_suite("bogus"), ValueError,
                          "unknown suite 'bogus'")}),
}

KERNELS.update({
    f"{name} brute": row(partial(kernel.call, method="brute"), *kernel.grid,
                         roles={"oracle", "squaring"}, twin=name)
    for name, kernel in list(KERNELS.items())
    if kernel.roles & {"energy", "ladder"}})

assert all(kernel.roles <= ROLES for kernel in KERNELS.values())


def names(role):
    """The sorted names of the rows with role."""
    return sorted(name for name, kernel in KERNELS.items()
                  if role in kernel.roles)
