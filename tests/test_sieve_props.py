"""Property test of the P(x) counting path against its literal oracle;
skipped without hypothesis."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab.oracles import px_count_literal  # noqa: E402
from sievelab.sieve import PxQuery, px_count  # noqa: E402

# x = n/d with |n| <= 240 and d <= 60: negative and above 1 included
xs = st.builds(Fraction, st.integers(-240, 240), st.integers(1, 60))
# 1/1024 <= Delta <= 2
deltas = st.builds(Fraction, st.integers(1, 128), st.integers(64, 1024))


@given(x=xs, Q=st.integers(1, 12), delta=deltas)
@settings(max_examples=100, deadline=None)
def test_px_count_equals_the_literal_count(x, Q, delta):
    query = PxQuery(x, Q, delta)
    assert px_count(query) == px_count_literal(query)
