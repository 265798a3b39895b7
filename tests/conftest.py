import sys

import numpy as np
import pytest

from sievelab import expsums, sqrtmod


@pytest.fixture
def patch_everywhere(monkeypatch):
    """patch(module, attr, new): module.attr replaced by new, for the test,
    in every sievelab namespace that binds it; patch returns the names of
    those namespaces."""
    def patch(module, attr, new):
        kernel = getattr(module, attr)
        patched = set()
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "sievelab" and \
                    getattr(mod, attr, None) is kernel:
                monkeypatch.setattr(mod, attr, new)
                patched.add(name)
        return patched
    return patch


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
def int64_residues(patch_everywhere, fresh_tables):
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

    assert patch_everywhere(sqrtmod, "_residue_dtype", wide) == {
        "sievelab.sqrtmod", "sievelab.expsums", "sievelab.charsums",
        "sievelab.acceptance"}
