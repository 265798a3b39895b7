import sys

import numpy as np
import pytest

from sievelab import acceptance, charsums, expsums, sqrtmod


@pytest.fixture
def int64_residues(monkeypatch):
    """The signed residue kernels forced to int64 at every modulus: the
    dtype rule sqrtmod._residue_dtype replaced wherever it is bound."""
    rule = sqrtmod._residue_dtype
    patched = set()
    for mod in list(sys.modules.values()):
        if getattr(mod, "_residue_dtype", None) is rule:
            monkeypatch.setattr(mod, "_residue_dtype", lambda n: np.int64)
            patched.add(mod)
    assert patched == {sqrtmod, expsums, charsums, acceptance}
