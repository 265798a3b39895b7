import pytest

import gates
from sievelab import scan

GRIDS = [
    {"op": "e4", "grid": {"r": [35, 45], "j": [1], "R": [3]}},
    {"op": "e2", "grid": {"r": [35, 45, 77], "j": [1], "R": [3]}},
    {"op": "f2", "grid": {"r": [35, 45, 77], "j": [1], "R": [3], "h": [1]}},
]


def _scan_pass(grids=GRIDS, budget=10 ** 9):
    return {"grids": [{"op": g["op"], "csv": scan.records_to_csv(
        scan.run_scan(scan.ScanSpec(g["op"], g["grid"], budget=budget)))}
        for g in grids]}


def _bump_energy(text, r, delta):
    lines = text.splitlines()
    header = lines[0].split(",")
    ri, ei = header.index("param_r"), header.index("out_energy")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[ri] == str(r):
            cells[ei] = str(int(cells[ei]) + delta)
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scan_oracle():
    return gates.scan_oracle(GRIDS, seed=0)


def test_brute_sample_covers_e2_f2_and_smallest_e4():
    sample = gates.brute_sample(GRIDS, seed=0)
    assert ("e4", 35) in sample
    assert {op for op, _ in sample} == {"e2", "e4", "f2"}
    assert sample == gates.brute_sample(GRIDS, seed=0)


def test_scan_gate_passes_a_correct_pass(scan_oracle):
    state = {}
    assert gates.gate_scan(_scan_pass(), GRIDS, scan_oracle, state) == (8, 0, [])
    assert gates.gate_scan(_scan_pass(), GRIDS, scan_oracle, state) == (8, 0, [])


def test_scan_gate_rejects_energy_off_by_one(scan_oracle):
    out = _scan_pass()
    op, r = next(iter(scan_oracle))
    g = next(x for x in out["grids"] if x["op"] == op)
    g["csv"] = _bump_energy(g["csv"], r, 1)
    attempted, failed, problems = gates.gate_scan(out, GRIDS, scan_oracle, {})
    assert failed >= 1 and any("brute" in p for p in problems)


def test_scan_gate_rejects_missing_point_truncation_and_changed_csv(scan_oracle):
    out = _scan_pass()
    out["grids"][1]["csv"] = "\n".join(
        line for line in out["grids"][1]["csv"].splitlines() if ",77," not in line) + "\n"
    _, failed, problems = gates.gate_scan(out, GRIDS, scan_oracle, {})
    assert failed >= 1 and any("no record" in p for p in problems)

    truncated = _scan_pass(budget=1)
    _, failed, problems = gates.gate_scan(truncated, GRIDS, scan_oracle, {})
    assert failed >= 3 and any("truncated" in p for p in problems)

    state = {}
    gates.gate_scan(_scan_pass(), GRIDS, scan_oracle, state)
    later = _scan_pass()
    later["grids"][0]["csv"] += "\n"
    _, failed, problems = gates.gate_scan(later, GRIDS, scan_oracle, state)
    assert failed == 1 and "differs" in problems[0]


def test_query_gate_rejects_dropped_root_and_wrong_values():
    queries = [
        {"op": "sqrt_mod_all", "m": 4, "r": 15},
        {"op": "gauss_sum_closed", "q": 45, "a": 7, "b": 3},
        {"op": "energy_e2", "R": 3, "j": 1, "r": 35},
        {"op": "s4_closed", "j": 2, "h": [1, 2, 3, 4], "r": 13},
    ]
    oracle = gates.query_oracle(queries)
    assert oracle[0] == [2, 7, 8, 13]
    good = [{"v": [2, 7, 8, 13]},
            {"v": [oracle[1].real, oracle[1].imag]},
            {"v": oracle[2]},
            {"v": [oracle[3].real, oracle[3].imag]}]
    assert gates.gate_queries({"results": good}, queries, oracle) == (4, 0, [])
    bad = [{"v": [2, 7, 13]},
           {"v": [oracle[1].real + 1e-3, oracle[1].imag]},
           {"v": oracle[2] + 1},
           {"error": "ValueError('boom')"}]
    attempted, failed, problems = gates.gate_queries({"results": bad}, queries, oracle)
    assert (attempted, failed) == (4, 4)


def test_sqrt_gate_without_exhaustive_oracle_checks_each_root():
    q = {"op": "sqrt_mod_all", "m": 4, "r": 10 ** 12 + 39}
    assert gates.check_query(q, {"v": [2, 10 ** 12 + 37]}, None) is None
    assert gates.check_query(q, {"v": [10 ** 12 + 37, 2]}, None)   # unsorted
    assert gates.check_query(q, {"v": [2, 2]}, None)                # repeated
    assert gates.check_query(q, {"v": [3]}, None)                   # not a root


def test_accept_gate_rejects_changed_detail_and_failures():
    reference = {"1": "all good", "10": "ratios"}
    out = {"criteria": [
        {"n": 1, "passed": True, "monitor": False, "detail": "all good"},
        {"n": 10, "passed": True, "monitor": True, "detail": "ratios"}]}
    assert gates.gate_accept(out, reference) == (2, 0, [])
    out["criteria"][1]["detail"] = "ratios changed"
    assert gates.gate_accept(out, reference)[1] == 1
    out["criteria"][0] = {"n": 1, "passed": False, "monitor": False, "detail": "all good"}
    assert gates.gate_accept(out, reference)[1] == 2
    out["criteria"][0] = {"n": 1, "error": "RuntimeError()"}
    assert gates.gate_accept(out, reference)[1] == 2


def test_reference_holds_every_criterion():
    assert sorted(gates.load_reference(), key=int) == [str(n) for n in range(1, 11)]
