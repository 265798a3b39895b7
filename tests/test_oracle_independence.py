"""The scalar oracles stay off the phase table that the fast paths use.

Every fast complete sum gathers e_q(t) from expsums.unit_phases; every
oracle that checks one evaluates e_frac term by term.  With unit_phases
patched to raise wherever it is bound, the oracles must still return and
the fast paths must raise, so a later speed-up cannot route an oracle
through the path it checks.
"""

import sys

import numpy as np
import pytest

from sievelab import expsums
from sievelab.charsums import S4Input, s4_closed, s4_direct
from sievelab.expsums import (RationalFunctionModP, esum_jh, gauss_sum_closed,
                              gauss_sum_direct, gcal, rational_expsum)
from sievelab.sieve import SieveInstance, ls_lhs
from test_expsums import gcal_literal, rational_literal


class KernelCalled(Exception):
    pass


def _kernel_called(*args, **kwargs):
    raise KernelCalled


@pytest.fixture
def no_phase_table(monkeypatch):
    kernel = expsums.unit_phases
    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sievelab" and \
                getattr(mod, "unit_phases", None) is kernel:
            monkeypatch.setattr(mod, "unit_phases", _kernel_called)
            patched.add(name)
    assert {"sievelab.expsums", "sievelab.sieve",
            "sievelab.charsums"} <= patched


ORACLES = {
    "gauss_sum_closed": lambda: gauss_sum_closed(45, 2, 3),
    "esum_jh bare": lambda: esum_jh(3, 5, 2, 1, 45, form="bare"),
    "s4_closed": lambda: s4_closed(S4Input(2, (1, 2, 3, 4), 7)),
    "s4_direct loops": lambda: s4_direct(S4Input(2, (1, 2, 3, 4), 7),
                                         via="loops"),
    "gcal literal": lambda: gcal_literal(45, 1, 2, 1, 3, 4, 2),
    "rational literal": lambda: rational_literal((1, 0, 1), (0, 1), 13),
}

FAST_PATHS = {
    "gauss_sum_direct": lambda: gauss_sum_direct(45, 2, 3),
    "esum_jh paired": lambda: esum_jh(3, 5, 2, 1, 45, form="paired"),
    "gcal": lambda: gcal(45, 1, 2, 1, 3, 4, 2),
    "rational_expsum": lambda: rational_expsum(
        RationalFunctionModP((1, 0, 1), (0, 1), 13)),
    "ls_lhs": lambda: ls_lhs(SieveInstance(0, np.ones(8), 3)),
    "s4_direct pairs": lambda: s4_direct(S4Input(2, (1, 2, 3, 4), 7),
                                         via="pairs"),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_does_not_use_the_phase_table(name, no_phase_table):
    assert ORACLES[name]() is not None


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
def test_fast_path_uses_the_phase_table(name, no_phase_table):
    with pytest.raises(KernelCalled):
        FAST_PATHS[name]()
