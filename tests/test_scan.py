import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sievelab.scan import (ResultRecord, ScanSpec, parse_grid,
                           records_from_csv, records_from_json, records_to_csv,
                           records_to_json, run_scan)


def test_scanspec_validates():
    with pytest.raises(ValueError):
        ScanSpec("e2", {})
    with pytest.raises(ValueError):
        ScanSpec("e2", {"r": []})
    with pytest.raises(ValueError):
        ScanSpec("no_such_op", {"r": [3]})
    # each op names the grid parameters it reads but the grid lacks
    with pytest.raises(ValueError, match="j, R$"):
        ScanSpec("e2", {"r": [7]})
    with pytest.raises(ValueError, match="needs grid parameters h$"):
        ScanSpec("f2", {"r": [7], "j": [1], "R": [2]})
    with pytest.raises(ValueError, match="numerator, denominator$"):
        ScanSpec("bombieri", {"p": [5]})
    with pytest.raises(ValueError, match="x, Q, N$"):
        ScanSpec("px", {"q": [5]})
    # and refuses a grid parameter the operation does not read
    with pytest.raises(ValueError, match="reads no grid parameters foo$"):
        ScanSpec("e2", {"r": [5], "j": [1], "R": [4], "foo": [1]})
    with pytest.raises(ValueError, match="reads no grid parameters h$"):
        ScanSpec("e4", {"r": [5], "j": [1], "R": [4], "h": [1]})


def test_single_point_scan():
    spec = ScanSpec("e2", {"r": [7], "j": [1], "R": [2]})
    records = run_scan(spec)
    assert len(records) == 2  # one point + summary
    assert records[0].operation == "e2"
    assert records[0].outputs["energy"] == 44
    assert records[1].operation == "summary"
    assert records[1].outputs["count"] == 1


def test_scan_order_is_lexicographic():
    spec = ScanSpec("e2", {"r": [11, 7, 5], "j": [1], "R": [2, 1]})
    records = run_scan(spec)
    points = [(r.parameters["R"], r.parameters["j"], r.parameters["r"])
              for r in records if r.operation == "e2"]
    assert points == sorted(points)


def test_scan_budget_truncation():
    spec = ScanSpec("e2", {"r": [7, 11, 13], "j": [1], "R": [2]}, budget=1)
    records = run_scan(spec)
    assert records[-1].operation == "truncated"
    assert sum(1 for r in records if r.operation == "e2") == 1


def test_scan_determinism():
    spec = ScanSpec("gauss", {"q": [9, 15], "a": [1, 2], "b": [0]})
    a = records_to_csv(run_scan(spec))
    b = records_to_csv(run_scan(spec))
    assert a == b


def test_csv_round_trip():
    spec = ScanSpec("e2", {"r": [7, 11], "j": [1], "R": [2]})
    records = run_scan(spec)
    back = records_from_csv(records_to_csv(records))
    assert len(back) == len(records)
    for x, y in zip(records, back):
        assert x.operation == y.operation
        assert x.parameters == y.parameters
        assert set(x.outputs) == set(y.outputs)
        for k in x.outputs:
            assert x.outputs[k] == y.outputs[k], k


def test_json_round_trip():
    records = [ResultRecord("demo", {"x": Fraction(1, 3), "n": 4},
                            {"ratio": 0.1234567890123456789, "flag": True})]
    back = records_from_json(records_to_json(records))
    assert back[0].parameters == {"x": Fraction(1, 3), "n": 4}
    assert back[0].outputs["ratio"] == records[0].outputs["ratio"]
    assert back[0].outputs["flag"] is True


def test_csv_and_json_decode_equal():
    spec = ScanSpec("f2", {"r": [15], "j": [2], "h": [1], "R": [3]})
    records = run_scan(spec)
    a = records_from_csv(records_to_csv(records))
    b = records_from_json(records_to_json(records))
    for x, y in zip(a, b):
        assert x.operation == y.operation
        assert x.parameters == y.parameters
        assert x.outputs == y.outputs


def test_coefficient_parameters_round_trip():
    spec = ScanSpec("bombieri", {"p": [5, 7],
                                 "numerator": [(1, 0, 1), (0, 0, 1, 1)],
                                 "denominator": [(0, 1), (1,)]})
    records = run_scan(spec)
    assert records[0].parameters["numerator"] == (0, 0, 1, 1)
    assert records[-1].outputs["argmax_denominator"] in ((0, 1), (1,))
    text = records_to_csv(records)
    assert "bombieri,0;1,0;0;1;1,5," in text
    for back in (records_from_csv(text),
                 records_from_json(records_to_json(records))):
        for x, y in zip(records, back):
            assert x.parameters == y.parameters
            assert x.outputs == y.outputs


def test_rational_parameters_round_trip():
    spec = ScanSpec("px", {"x": [Fraction(1, 3), Fraction(2, 7)], "Q": [4],
                           "N": [64]})
    records = run_scan(spec)
    assert records[-1].outputs["argmax_x"] == Fraction(1, 3)
    text = records_to_csv(records)
    assert "px,64,4,1/3," in text
    for back in (records_from_csv(text),
                 records_from_json(records_to_json(records))):
        for x, y in zip(records, back):
            assert x.parameters == y.parameters
        assert back[-1].outputs == records[-1].outputs


#: the seven grids of CI's byte-identity step, as (op, --param values),
#: with the sha256 of the CSV each wrote before this pin was added
SCAN_SHA256 = json.loads((Path(__file__).parent / "reference"
                          / "scan_sha256.json").read_text())


@pytest.mark.parametrize("name", sorted(SCAN_SHA256))
def test_ci_scan_grids_are_pinned(name):
    ref = SCAN_SHA256[name]
    spec = ScanSpec(ref["op"], parse_grid(ref["op"], ref["param"]))
    csv_text = records_to_csv(run_scan(spec))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == ref["sha256"]
