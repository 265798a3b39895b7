import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probe

BENCH = Path(__file__).resolve().parents[1]


def test_rescaler_leaves_probes_out_and_scales_by_bracketing_probes():
    # probes of 1 s at [0, 1], [3, 4] and [6, 8]; nominal 1 s, so work
    # between the first two counts fully and between the last two 2/3
    scale = probe.Rescaler([(0.0, 1.0), (3.0, 4.0), (6.0, 8.0)], nominal=1.0)
    assert scale.work((1.0, 6.0)) == pytest.approx(4.0)
    assert scale.reference((1.0, 6.0)) == pytest.approx(2.0 + 2.0 * 2 / 3)
    assert scale.work((2.0, 5.0)) == pytest.approx(2.0)
    assert scale.reference((2.0, 5.0)) == pytest.approx(1.0 + 1.0 * 2 / 3)
    assert scale.reference((4.5, 5.5)) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        probe.Rescaler([(0.0, 1.0)])


def test_a_machine_twice_as_slow_gives_the_same_reference_time():
    fast = probe.Rescaler([(0.0, 0.01), (1.01, 1.02)], nominal=0.01)
    slow = probe.Rescaler([(0.0, 0.02), (2.02, 2.04)], nominal=0.01)
    assert fast.reference((0.01, 1.01)) == pytest.approx(slow.reference((0.02, 2.02)))
    assert probe.reference_time(2.0, 0.02, 0.02, nominal=0.01) == pytest.approx(1.0)


def test_probed_pass_reports_work_and_reference_time():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    job = {"workload": "queries", "trace": False,
           "inputs": {"queries": [{"op": "sqrt_mod_all", "m": 4, "r": 15}] * 50}}
    res = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    out = json.loads(res.stdout)
    assert out["probes"] >= 2
    assert len(out["items_s"]) == len(out["items_ref_s"]) == 50
    assert 0 < sum(out["items_s"]) <= out["pass_s"]
    assert 0 < sum(out["items_ref_s"]) <= out["pass_ref_s"]
