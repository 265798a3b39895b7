"""Property tests of the P(x) counting path and the large-sieve sum
against their literal oracles; skipped without hypothesis."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab.acceptance import _totient_sum  # noqa: E402
from sievelab.oracles import ls_lhs_literal, px_count_literal  # noqa: E402
from sievelab.sieve import (PxQuery, SieveInstance, ls_lhs,  # noqa: E402
                            px_count)

# x = n/d with |n| <= 240 and d <= 60: negative and above 1 included
xs = st.builds(Fraction, st.integers(-240, 240), st.integers(1, 60))
# 1/1024 <= Delta <= 2
deltas = st.builds(Fraction, st.integers(1, 128), st.integers(64, 1024))


@given(x=xs, Q=st.integers(1, 12), delta=deltas)
@settings(max_examples=100, deadline=None)
def test_px_count_equals_the_literal_count(x, Q, delta):
    query = PxQuery(x, Q, delta)
    assert px_count(query) == px_count_literal(query)


#: M anywhere, the int64 edges and just past them included
Ms = st.one_of(st.integers(-2 ** 70, 2 ** 70),
               st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1]))
# small Gaussian integers
gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@given(moduli=st.sampled_from(["classical", "squares"]), Q=st.integers(1, 8),
       M=Ms, coeffs=st.lists(gaussian, min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_ls_lhs_equals_the_literal_sum(moduli, Q, M, coeffs):
    inst = SieveInstance(M, coeffs, Q)
    fast = ls_lhs(inst, moduli=moduli)
    literal = ls_lhs_literal(inst, moduli=moduli)
    diagonal = _totient_sum(Q, moduli == "squares") * inst.Z
    assert abs(fast - literal) <= 1e-9 * diagonal


@given(moduli=st.sampled_from(["classical", "squares"]), Q=st.integers(1, 8),
       M=Ms, shift=Ms, coeffs=st.lists(gaussian, min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_ls_lhs_is_exactly_shift_invariant(moduli, Q, M, shift, coeffs):
    assert (ls_lhs(SieveInstance(M, coeffs, Q), moduli=moduli)
            == ls_lhs(SieveInstance(M + shift, coeffs, Q), moduli=moduli))
