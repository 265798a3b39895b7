"""Every reachable refusal that no other test reaches, each with its
message: a refusal that stopped firing, or fired with another reason,
would otherwise go unseen.  The refusals are the registry's
(tests/kernels.py), each listed in the row of the kernel that raises it."""

import re

import pytest

from kernels import KERNELS


@pytest.mark.parametrize("call, error, message", [
    pytest.param(*refusal, id=case) for kernel in KERNELS.values()
    for case, refusal in kernel.refusals.items()])
def test_refusal_names_its_reason(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
