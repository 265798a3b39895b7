"""Property tests of the fast energy kernel; skipped without hypothesis."""

import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import energies  # noqa: E402
from sievelab.oracles import pair_energies  # noqa: E402
from test_energies import multiset, multiset_energies  # noqa: E402


def literal_e4(table, r):
    values = [lam for lam, c in table.items() for _ in range(c)]
    sums = {}
    for a in values:
        for b in values:
            for c in values:
                for d in values:
                    s = (a + b + c + d) % r
                    sums[s] = sums.get(s, 0) + 1
    return sum(n * n for n in sums.values())


def sparse_tables(max_r, max_keys, max_count):
    return st.integers(1, max_r).flatmap(lambda r: st.tuples(
        st.just(r),
        st.dictionaries(st.integers(0, r - 1), st.integers(1, max_count),
                        max_size=max_keys)))


# one dense table whose 400 keys span several blocks of the fast kernel
@example(case=(400, {k: 1 + k % 3 for k in range(400)}))
@given(case=sparse_tables(max_r=400, max_keys=12, max_count=99))
@settings(max_examples=60, deadline=None)
def test_conv_equals_brute_on_sparse_tables(case):
    r, table = case
    for fold in (2, 4):
        assert (multiset_energies(*multiset(table), r, fold)
                == pair_energies(*multiset(table), r, fold))


@given(case=sparse_tables(max_r=400, max_keys=12, max_count=99),
       block=st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=60, deadline=None)
def test_conv_equals_brute_with_small_pair_blocks(case, block):
    # tiny blocks split every table into row blocks that pair each
    # unordered pair once; patched in the body, since a function-scoped
    # monkeypatch is not undone between hypothesis examples
    r, table = case
    with mock.patch.object(energies, "_BLOCK", block):
        for fold in (2, 4):
            assert (multiset_energies(*multiset(table), r, fold)
                    == pair_energies(*multiset(table), r, fold))


@given(case=sparse_tables(max_r=400, max_keys=12, max_count=99),
       threshold=st.sampled_from([0, 1, 16, math.inf]))
@settings(max_examples=60, deadline=None)
def test_conv_equals_brute_with_any_transform_threshold(case, threshold):
    # threshold 0 transforms every nonempty dense self-convolution, and
    # infinity none; patched in the body, as above
    r, table = case
    with mock.patch.object(energies, "_TRANSFORM_PAIRS_PER_BIN", threshold):
        for fold in (2, 4):
            assert (multiset_energies(*multiset(table), r, fold)
                    == pair_energies(*multiset(table), r, fold))


@given(case=sparse_tables(max_r=400, max_keys=4, max_count=3))
@settings(max_examples=40, deadline=None)
def test_conv_e4_equals_literal_four_sum_count(case):
    r, table = case
    assert (multiset_energies(*multiset(table), r, 4)[-1]
            == literal_e4(table, r))


# moduli up to 1e12 reach the sparse bins, where "brute" would need r bins
@given(case=sparse_tables(max_r=10 ** 12, max_keys=4, max_count=3))
@settings(max_examples=40, deadline=None)
def test_conv_e4_equals_literal_count_at_large_moduli(case):
    r, table = case
    assert (multiset_energies(*multiset(table), r, 4)[-1]
            == literal_e4(table, r))
