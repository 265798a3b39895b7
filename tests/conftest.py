import sys

import numpy as np
import pytest

from sievelab import acceptance, charsums, expsums, sqrtmod


@pytest.fixture
def fresh_tables():
    """expsums' three table memos, unit_phases, _unit_inverses and
    _inverse_table, empty before and after the test, so no table built
    elsewhere (in another width, say) is read here or outlives it."""
    memos = (expsums.unit_phases, expsums._unit_inverses,
             expsums._inverse_table)
    for memo in memos:
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def int64_residues(monkeypatch, fresh_tables):
    """The residue kernels forced to 64 bits at every modulus, the signed
    ones to int64 and the unsigned ones to uint64: the width rule
    sqrtmod._residue_dtype replaced wherever sievelab binds it, its
    refusal kept.  expsums' table memos are empty before and after
    (fresh_tables), so no table built in the other width is read here or
    outlives the test."""
    rule = sqrtmod._residue_dtype

    def wide(n, name="n", unsigned=False):
        rule(n, name, unsigned)
        return np.uint64 if unsigned else np.int64

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sievelab" and \
                getattr(mod, "_residue_dtype", None) is rule:
            monkeypatch.setattr(mod, "_residue_dtype", wide)
            patched.add(mod)
    assert patched == {sqrtmod, expsums, charsums, acceptance}
