"""Parameter-grid scan driver with deterministic ordering and
byte-identical CSV/JSON output.

SCAN_OPERATIONS is the one table of operations: each one's grid
parameters and how their values are written, its declared cost and its
evaluator.  parse_grid reads the command-line form from it, ScanSpec
refuses a grid that lacks a parameter its operation reads or names one
it does not, and run_scan evaluates and charges each point through it.
records_to_csv and records_to_json write scan files; nothing here reads
them back."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from . import __version__
from .arith import DEFAULT_BUDGET
from .energies import energy_e2, energy_e4, energy_f2
from .expsums import (RationalFunctionModP, esum_jh, gauss_sum_closed,
                      gauss_sum_direct, rational_expsum)
from .sieve import px_cost, px_monitor


@dataclass(frozen=True)
class ScanSpec:
    operation: str
    grid: Mapping[str, Sequence]
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.operation not in SCAN_OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}")
        if not self.grid or any(len(v) == 0 for v in self.grid.values()):
            raise ValueError("grid must be non-empty in every parameter")
        declared = SCAN_OPERATIONS[self.operation][0]
        missing = [k for k in declared if k not in self.grid]
        if missing:
            raise ValueError(f"operation {self.operation!r} needs grid "
                             f"parameters {', '.join(missing)}")
        unread = [k for k in self.grid if k not in declared]
        if unread:
            raise ValueError(f"operation {self.operation!r} reads no grid "
                             f"parameters {', '.join(unread)}")


@dataclass(frozen=True)
class ResultRecord:
    operation: str
    parameters: Dict[str, object]
    outputs: Dict[str, object]


def parse_coefficients(text: str) -> Tuple[int, ...]:
    """The coefficient tuple written c0;c1;... ("0;1" is (0, 1))."""
    return tuple(int(c) for c in text.split(";"))


def parse_rational(text: str) -> Fraction:
    """p/q or a decimal, exactly (0.1 is 1/10, not the nearest double)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _energy_outputs(rep) -> Dict[str, object]:
    return {"energy": rep.energy, "bound": rep.hyp_bound, "ratio": rep.ratio}


def _sum_outputs(v) -> Dict[str, object]:
    return {"abs": v.abs, "ratio": v.margin}


def _gauss_outputs(p) -> Dict[str, object]:
    q, a, b = p["q"], p["a"], p["b"]
    direct = gauss_sum_direct(q, a, b)
    out = {"abs": direct.abs, "re": direct.value.real, "im": direct.value.imag}
    if q % 2 == 1:
        closed = gauss_sum_closed(q, a, b)
        out["closed_error"] = abs(direct.value - closed.value)
        out["ratio"] = out["closed_error"] / max(q * 1e-9, 1e-30)
    return out


def _px_outputs(p) -> Dict[str, object]:
    out = dict(px_monitor(p["x"], p["Q"], p["N"]))
    out["ratio"] = out.get("conj_ratio", 0.0)
    return out


#: the one table of scan operations: each name maps to (its grid
#: parameters, in the order a missing one is named, with the parser of
#: their command-line values; the declared cost of one point; the
#: evaluator of one point's outputs).  A parser is int (the only one with
#: a start:stop[:step] range form), parse_coefficients (c0;c1;... integer
#: tuples, ascending powers) or parse_rational (p/q or a decimal,
#: exactly); CSV/JSON files write tuples c0;c1;... and rationals p/q.
#: run_scan adds a point's cost to the spent total after evaluating it.
SCAN_OPERATIONS: Dict[str, Tuple[Dict[str, Callable], Callable, Callable]] = {
    "e2": ({"r": int, "j": int, "R": int},
           lambda p: p["r"] * p["R"] ** 2,
           lambda p: _energy_outputs(energy_e2(p["R"], p["j"], p["r"]))),
    "e4": ({"r": int, "j": int, "R": int},
           lambda p: p["r"] * p["R"] ** 4,
           lambda p: _energy_outputs(energy_e4(p["R"], p["j"], p["r"]))),
    "f2": ({"r": int, "j": int, "R": int, "h": int},
           lambda p: p["r"] * p["R"] ** 2,
           lambda p: _energy_outputs(energy_f2(p["R"], p["j"], p["h"],
                                               p["r"]))),
    "esum": ({"l": int, "n": int, "j": int, "h": int, "r": int},
             lambda p: p["r"],
             lambda p: _sum_outputs(esum_jh(p["l"], p["n"], p["j"], p["h"],
                                            p["r"]))),
    "gauss": ({"q": int, "a": int, "b": int}, lambda p: p["q"],
              _gauss_outputs),
    "bombieri": ({"numerator": parse_coefficients,
                  "denominator": parse_coefficients, "p": int},
                 lambda p: p["p"],
                 lambda p: _sum_outputs(rational_expsum(RationalFunctionModP(
                     tuple(p["numerator"]), tuple(p["denominator"]),
                     p["p"])))),
    "px": ({"x": parse_rational, "Q": int, "N": int},
           lambda p: px_cost(p["Q"]), _px_outputs),
}


def parse_grid(op: str, items: Sequence[str]) -> Dict[str, list]:
    """The grid of op from NAME=v1,v2,... items, or NAME=START:STOP[:STEP]
    (STOP included, STEP > 0) for an int parameter.  A name op does not
    read keeps its text unparsed, for ScanSpec to refuse by name; a name
    given twice is refused here, and so is a malformed item, by a message
    that quotes it."""
    grid: Dict[str, list] = {}
    for item in items:
        name, _, spec = item.partition("=")
        if not name or not spec:
            raise ValueError(f"--param {item!r} is not NAME=VALUES")
        if name in grid:
            raise ValueError(f"--param {name} is given more than once")
        parse = SCAN_OPERATIONS[op][0].get(name)
        parts = spec.split(":")
        if parse is None:
            grid[name] = [spec]
            continue
        if len(parts) > 1 and parse is not int:
            raise ValueError(f"--param {name} has no range form; only int "
                             "parameters do")
        if len(parts) > 3:
            raise ValueError(f"--param {item!r} is not NAME=START:STOP[:STEP]")
        try:
            values = [parse(v) for v in
                      (spec.split(",") if len(parts) == 1 else parts)]
        except ValueError as exc:
            raise ValueError(f"--param {item!r}: {exc}") from None
        if len(parts) > 1:
            start, stop, step = (values + [1])[:3]
            if step <= 0:
                raise ValueError(f"--param {name} has STEP {step}; "
                                 "it must be positive")
            values = list(range(start, stop + 1, step))
        grid[name] = values
    return grid


def run_scan(spec: ScanSpec) -> List[ResultRecord]:
    """Evaluate every grid point within budget, in deterministic
    lexicographic parameter order, then append a summary row; budget
    exhaustion emits the partial results plus a truncation marker."""
    _, cost, evaluate = SCAN_OPERATIONS[spec.operation]
    keys = sorted(spec.grid)
    points = sorted(itertools.product(*(spec.grid[k] for k in keys)))
    records: List[ResultRecord] = []
    spent = 0
    truncated = False
    for values in points:
        params = dict(zip(keys, values))
        outputs = evaluate(params)
        spent += cost(params)
        records.append(ResultRecord(spec.operation, params, outputs))
        if spent > spec.budget:
            truncated = True
            break
    best = None
    for rec in records:
        ratio = rec.outputs.get("ratio")
        if ratio is not None and (best is None or ratio > best.outputs["ratio"]):
            best = rec
    summary_out: Dict[str, object] = {"count": len(records)}
    if best is not None:
        summary_out["max_ratio"] = best.outputs["ratio"]
        summary_out.update({f"argmax_{k}": v for k, v in best.parameters.items()})
    records.append(ResultRecord("summary", {}, summary_out))
    if truncated:
        records.append(ResultRecord("truncated", {}, {"budget": spec.budget,
                                                      "spent": spent}))
    return records


def _encode_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, tuple):
        return ";".join(str(c) for c in v)
    return str(v)


def records_to_csv(records: Sequence[ResultRecord]) -> str:
    """Serialize records to CSV.  A fixed (spec, __version__) yields
    byte-identical files across runs."""
    pkeys = sorted({k for r in records for k in r.parameters})
    okeys = sorted({k for r in records for k in r.outputs})
    cols = (["operation"] + [f"param_{k}" for k in pkeys]
            + [f"out_{k}" for k in okeys] + ["version"])
    rows = [",".join(cols)]
    for r in records:
        cells = [r.operation]
        cells += [_encode_value(r.parameters[k]) if k in r.parameters else ""
                  for k in pkeys]
        cells += [_encode_value(r.outputs[k]) if k in r.outputs else ""
                  for k in okeys]
        cells.append(__version__)
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def records_to_json(records: Sequence[ResultRecord]) -> str:
    """Serialize records to JSON, byte-identical as records_to_csv is."""
    def enc(d):
        return {k: _encode_value(v)
                if isinstance(v, (float, Fraction, bool, tuple))
                else v for k, v in d.items()}

    payload = [{"operation": r.operation, "parameters": enc(r.parameters),
                "outputs": enc(r.outputs), "version": __version__}
               for r in records]
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"
