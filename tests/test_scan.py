import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sievelab import __version__
from sievelab.scan import (ResultRecord, ScanSpec, parse_grid, records_to_csv,
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


def test_values_are_encoded_exactly():
    # floats with .17g (17 significant digits, so float() reads the same
    # double back), Fractions p/q, bools true/false, tuples c0;c1;...
    records = [ResultRecord("demo", {"x": Fraction(1, 3), "n": 4,
                                     "numerator": (0, 0, 1, 1)},
                            {"ratio": 0.1234567890123456789, "flag": True})]
    assert records_to_csv(records) == (
        "operation,param_n,param_numerator,param_x,out_flag,out_ratio,version\n"
        f"demo,4,0;0;1;1,1/3,true,0.12345678901234568,{__version__}\n")
    assert json.loads(records_to_json(records)) == [{
        "operation": "demo",
        "parameters": {"n": 4, "numerator": "0;0;1;1", "x": "1/3"},
        "outputs": {"flag": "true", "ratio": "0.12345678901234568"},
        "version": __version__}]
    assert float("0.12345678901234568") == 0.1234567890123456789


def test_csv_and_json_write_the_same_values():
    spec = ScanSpec("f2", {"r": [7, 11, 15], "j": [2], "h": [1], "R": [3]})
    records = run_scan(spec)
    rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
    items = json.loads(records_to_json(records))
    assert len(rows) == len(items) == len(records)
    for rec, row, item in zip(records, rows, items):
        cells = {"operation": item["operation"], "version": item["version"]}
        cells.update({f"param_{k}": v for k, v in item["parameters"].items()})
        cells.update({f"out_{k}": v for k, v in item["outputs"].items()})
        assert {k: v for k, v in row.items() if v != ""} == \
            {k: str(v) for k, v in cells.items()}
        for k, v in rec.outputs.items():
            assert (float if isinstance(v, float) else int)(row[f"out_{k}"]) == v


def test_coefficient_parameters_encoding():
    spec = ScanSpec("bombieri", {"p": [5, 7],
                                 "numerator": [(1, 0, 1), (0, 0, 1, 1)],
                                 "denominator": [(0, 1), (1,)]})
    records = run_scan(spec)
    assert records[0].parameters["numerator"] == (0, 0, 1, 1)
    assert records[-1].outputs["argmax_denominator"] in ((0, 1), (1,))
    text = records_to_csv(records)
    assert "bombieri,0;1,0;0;1;1,5," in text


def test_rational_parameters_encoding():
    spec = ScanSpec("px", {"x": [Fraction(1, 3), Fraction(2, 7)], "Q": [4],
                           "N": [64]})
    records = run_scan(spec)
    assert records[-1].outputs["argmax_x"] == Fraction(1, 3)
    text = records_to_csv(records)
    assert "px,64,4,1/3," in text


def test_px_scan_at_large_Q_is_not_truncated():
    # the declared cost is px_count's bound Q 2^omega, not Q^2 N = 10^13
    spec = ScanSpec("px", {"x": [Fraction(1, 3)], "Q": [10 ** 4],
                           "N": [10 ** 5]})
    records = run_scan(spec)
    assert [r.operation for r in records] == ["px", "summary"]
    assert records[0].outputs["count"] > 0


#: the seven grids of CI's byte-identity step, as (op, --param values),
#: with the sha256 of the CSV (sha256) and of the JSON (json_sha256) each
#: wrote before its pin was added
SCAN_SHA256 = json.loads((Path(__file__).parent / "reference"
                          / "scan_sha256.json").read_text())


@pytest.mark.parametrize("name", sorted(SCAN_SHA256))
def test_ci_scan_grids_are_pinned(name):
    ref = SCAN_SHA256[name]
    spec = ScanSpec(ref["op"], parse_grid(ref["op"], ref["param"]))
    records = run_scan(spec)
    csv_text, json_text = records_to_csv(records), records_to_json(records)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == ref["sha256"]
    assert hashlib.sha256(json_text.encode()).hexdigest() == ref["json_sha256"]


@pytest.mark.parametrize("items, message", [
    (["r=5", "r=7"], "r is given more than once"),
    (["r=5", "r=1:3"], "r is given more than once"),
    (["r=10:1:-3"], "STEP -3; it must be positive"),
    (["r=1:10:0"], "STEP 0; it must be positive"),
    (["r=1:10:3:99"], "is not NAME=START:STOP\\[:STEP\\]"),
    (["r=5,"], "^--param 'r=5,': invalid literal for int\\(\\)"),
    (["r=5:"], "^--param 'r=5:': invalid literal for int\\(\\)"),
    (["r=a:9"], "^--param 'r=a:9': invalid literal for int\\(\\)"),
    (["j=x"], "^--param 'j=x': invalid literal for int\\(\\)"),
    (["=5"], "^--param '=5' is not NAME=VALUES$"),
], ids=["repeated", "repeated-range", "negative-step", "zero-step",
        "four-fields", "trailing-comma", "empty-stop", "non-int-start",
        "non-int-value", "empty-name"])
def test_parse_grid_refuses_malformed_ranges(items, message):
    with pytest.raises(ValueError, match=message):
        parse_grid("e2", items)
