import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

BENCH = Path(__file__).resolve().parents[1]

QUERIES = [
    {"op": "sqrt_mod_all", "m": 4, "r": 15},
    {"op": "sqrt_mod_all", "m": 2, "r": 15},
    {"op": "esum_jh", "l": 1, "n": 2, "j": 1, "h": 1, "r": 21},
    {"op": "gcal", "q": 45, "a": 1, "b": 2, "j": 1, "k": 3, "u": 1, "s": 1},
    {"op": "gauss_sum_closed", "q": 45, "a": 3, "b": 6},
    {"op": "energy_f2", "R": 3, "j": 1, "h": 1, "r": 35},
    {"op": "s4_closed", "j": 2, "h": [1, 2, 3, 4], "r": 13},
]


def _traced_pass():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    job = {"workload": "queries", "inputs": {"queries": QUERIES}, "trace": True}
    res = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(res.stdout)


@pytest.fixture(scope="module")
def two_passes():
    return _traced_pass(), _traced_pass()


def test_traced_call_counts_repeat_exactly(two_passes):
    a, b = ([row[:4] for row in p["trace"]["rows"]] for p in two_passes)
    assert a == b
    assert all("error" not in r for r in two_passes[0]["results"])


def test_functions_are_wrapped_in_every_importing_namespace(two_passes):
    rows = {}
    for fn, parent, _, n, _, _ in two_passes[0]["trace"]["rows"]:
        rows[(fn, parent)] = rows.get((fn, parent), 0) + n
    # sqrt_mod_all as bound inside expsums and sqrtmod, gauss_sum_closed
    # calling itself, is_prime inside FactoredModulus validation
    assert rows[("sqrtmod.sqrt_mod_all", "expsums.esum_jh")] == 21
    assert rows[("sqrtmod.sqrt_mod_all", "bench")] == 2
    assert ("sqrtmod.sqrt_mod_all", "sqrtmod.build_root_multiset") in rows
    assert ("expsums.gauss_sum_closed", "expsums.gauss_sum_closed") in rows
    assert ("arith.is_prime", "arith.factorize") in rows


def test_layer_metrics_from_a_traced_pass(two_passes):
    t = two_passes[0]["trace"]
    m = tracer.layer_metrics(t["rows"], t["empty_results"], t["unit_inverses"])
    assert m["sqrtmod.sqrt_mod_all.calls"] > 21
    assert 0 < m["sqrtmod.sqrt_mod_all.empty_frac"] < 1
    assert m["expsums.gcal.calls"] == 1
    assert m["expsums.unit_inverses.hit_ratio"] == 0.0   # one gcal: one miss
    assert m["charsums.s4_closed.calls"] == 1
    assert m["scan.self_s"] == 0.0
    total_self = sum(row[5] for row in t["rows"])
    assert total_self == pytest.approx(sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS))


def test_self_time_and_recursion_rules():
    c, g = "acceptance.c", "expsums.gauss_sum_closed"
    rows = [
        [c, "bench", c, 1, 10.0, 4.0],
        ["sqrtmod.sqrt_mod_all", c, c, 3, 6.0, 5.0],
        ["arith.is_prime", "sqrtmod.sqrt_mod_all", c, 9, 1.0, 1.0],
        [g, "bench", g, 1, 2.0, 1.5],
        [g, g, g, 1, 0.5, 0.5],
    ]
    m = tracer.layer_metrics(rows, 1, {"hits": 3, "misses": 1})
    assert m["acceptance.self_s"] == 4.0
    assert m["sqrtmod.self_s"] == 5.0
    assert m["arith.is_prime.calls"] == 9
    assert m["sqrtmod.sqrt_mod_all.s"] == 6.0
    assert m["sqrtmod.sqrt_mod_all.empty_frac"] == pytest.approx(1 / 3)
    assert m["expsums.self_s"] == 2.0
    assert m["expsums.unit_inverses.hit_ratio"] == 0.75
    assert tracer.layer_split(rows) == {c: {"acceptance": 4.0, "sqrtmod": 5.0, "arith": 1.0},
                                        g: {"expsums": 2.0}}
