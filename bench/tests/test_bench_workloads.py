import math

import pytest

import workloads
from workloads import generate


@pytest.fixture(scope="module")
def grids():
    return {seed: workloads.scan_grids(seed) for seed in (1, 2)}


def test_same_seed_same_inputs_other_seed_other_inputs(grids):
    assert workloads.scan_grids(1) == grids[1]
    assert grids[1] != grids[2]
    assert workloads.query_stream(1) == workloads.query_stream(1)
    assert workloads.query_stream(1) != workloads.query_stream(2)
    assert generate("accept", 1) == generate("accept", 2)


def test_scan_grids_mix_omega_classes_within_ranges(grids):
    omega = workloads.omega_table(workloads.E2F2_RANGE[1])
    for g in grids[1]:
        rs, R = g["grid"]["r"], g["grid"]["R"][0]
        lo, hi = workloads.E4_RANGE if g["op"] == "e4" else workloads.E2F2_RANGE
        assert all(lo <= r <= hi and R <= r for r in rs)
        assert sorted(omega[r] for r in rs) == [1, 1, 2, 2, 3, 3]
        if g["op"] == "e4":
            assert all(r % 2 == 1 for r in rs)
    assert workloads.declared_cost(grids[1]) < workloads.SCAN_BUDGET


def test_query_stream_meets_preconditions():
    qs = workloads.query_stream(3)
    assert len(qs) >= 2000
    counts = {}
    for q in qs:
        counts[q["op"]] = counts.get(q["op"], 0) + 1
    assert len(counts) == 10
    gcal_q = [q["q"] for q in qs if q["op"] == "gcal"]
    assert len(set(gcal_q)) == len(gcal_q) and max(gcal_q) <= 40_000
    for q in qs:
        if q["op"] in ("gcal", "gauss_sum_closed"):
            assert q["q"] % 2 == 1
        if q["op"] == "gcal":
            assert math.gcd(q["j"] * q["s"], q["q"]) == 1
        if q["op"] in ("esum_jh", "energy_e2", "energy_f2", "s4_closed"):
            assert math.gcd(q["j"], q["r"]) == 1
        if q["op"] in ("energy_e2", "energy_f2"):
            assert 1 <= q["R"] <= q["r"] <= 20_000
        if q["op"] == "s4_closed":
            assert workloads.is_prime(q["r"]) and q["r"] % 2 == 1
        if q["op"] == "sqrt_mod_all":
            assert 0 <= q["m"] < q["r"] <= 10 ** 12


def test_stratified_ints_cover_every_stratum():
    import numpy as np

    vals = sorted(workloads.stratified_ints(np.random.default_rng(0), 1, 100, 10))
    assert [(v - 1) // 10 for v in vals] == list(range(10))
