"""Every reachable refusal that no other test reaches, each with its
message: a refusal that stopped firing, or fired with another reason,
would otherwise go unseen."""

import argparse
import re
from fractions import Fraction

import pytest

from sievelab.acceptance import run_suite
from sievelab.arith import (BudgetExceeded, FactoredModulus, eps_q,
                            factorize, jacobi)
from sievelab.cli import _parse_weight
from sievelab.energies import energy_e2
from sievelab.expsums import RationalFunctionModP, rational_expsum
from sievelab.oracles import gcd_power_sum, px_count_literal
from sievelab.sieve import (ApproxFrame, PxQuery, SieveInstance,
                            dirichlet_approx, ls_bound_table, ls_lhs)

REFUSALS = {
    "modulus below 1": (
        lambda: FactoredModulus(0, ()), ValueError, "modulus must be >= 1"),
    "primes out of order": (
        lambda: FactoredModulus(15, ((5, 1), (3, 1))), ValueError,
        "primes must be strictly increasing"),
    "factorize past 2^63": (
        lambda: factorize(2 ** 63 + 1), ValueError,
        "factorize caps n at 2^63"),
    "jacobi at even q": (
        lambda: jacobi(1, 4), ValueError, "jacobi requires odd positive q"),
    "eps_q at even q": (
        lambda: eps_q(4), ValueError, "eps_q requires odd positive q"),
    "unknown weight": (
        lambda: _parse_weight("gauss:2"), argparse.ArgumentTypeError,
        "unknown weight 'gauss:2' (try fejer:<width>)"),
    "weight of width 0": (
        lambda: _parse_weight("fejer:0"), argparse.ArgumentTypeError,
        "width must be >= 1"),
    "unknown energy method": (
        lambda: energy_e2(3, 1, 35, method="bogus"), ValueError,
        "unknown method 'bogus'"),
    "numerator zero mod p": (
        lambda: rational_expsum(RationalFunctionModP((7,), (1, 1), 7)),
        ValueError, "bound requires f nonconstant mod p"),
    "px_count_literal over budget": (
        lambda: px_count_literal(PxQuery(Fraction(1, 3), 8, Fraction(1, 64)),
                                 budget=10),
        BudgetExceeded, "exceeds budget 10"),
    "gcd_power_sum at H = 0": (
        lambda: gcd_power_sum(0, 5, 1), ValueError, "H and r must be >= 1"),
    "gcd_power_sum at sigma = 0": (
        lambda: gcd_power_sum(5, 5, 0), ValueError,
        "sigma must lie in (0, 1]"),
    "gcd_power_sum at sigma > 1": (
        lambda: gcd_power_sum(5, 5, Fraction(3, 2)), ValueError,
        "sigma must lie in (0, 1]"),
    "unknown moduli family": (
        lambda: ls_lhs(SieveInstance(0, [1.0], 2), moduli="bogus"),
        ValueError, "unknown moduli family 'bogus'"),
    "bound table at Q = 0": (
        lambda: ls_bound_table(0, 5), ValueError, "Q and N must be >= 1"),
    "frame with r > tau": (
        lambda: ApproxFrame(Fraction(1, 11), 100, b=1, r=11, z=Fraction(0)),
        ValueError, "need 1 <= r <= tau"),
    "frame with |z| > 1/(r tau)": (
        lambda: ApproxFrame(Fraction(1, 2), 100, b=0, r=1, z=Fraction(1, 2)),
        ValueError, "|z| must be <= 1/(r*tau)"),
    "dirichlet_approx at tau = 0": (
        lambda: dirichlet_approx(Fraction(1, 3), 0), ValueError,
        "tau must be >= 1"),
    "px query with Delta = 0": (
        lambda: PxQuery(Fraction(1, 3), 4, Fraction(0)), ValueError,
        "Delta must be positive"),
    "unknown suite": (
        lambda: run_suite("bogus"), ValueError, "unknown suite 'bogus'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_its_reason(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
