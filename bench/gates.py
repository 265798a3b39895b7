"""Correctness gates, run in the parent process after each pass.

Each gate returns (attempted, failed, problems): the operations of the
pass, those that failed (an exception, a wrong answer, a missing or
truncated scan point), and one line per failure.  Oracles are computed
once per run, since every pass of a run sees the same inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: criterion 4's tolerance between closed and direct Gauss sums
GAUSS_TOL = 1e-6
#: criterion 8's tolerance between closed and direct S4, times r^3
S4_TOL = 1e-9
#: exhaustive squaring is the sqrt oracle up to this modulus
EXHAUSTIVE_MAX = 100_000

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "accept_details.json")

Gate = Tuple[int, int, List[str]]


def load_reference() -> Dict[str, str]:
    with open(REFERENCE) as fh:
        return json.load(fh)


def gate_accept(out: dict, reference: Dict[str, str]) -> Gate:
    """Every pass/fail criterion passed and every detail string (the
    monitor's too) equals the recorded reference."""
    problems = []
    for rec in out["criteria"]:
        n = rec["n"]
        if "error" in rec:
            problems.append(f"criterion {n} raised {rec['error']}")
        elif not rec["monitor"] and not rec["passed"]:
            problems.append(f"criterion {n} failed: {rec['detail']}")
        elif rec["detail"] != reference.get(str(n)):
            problems.append(f"criterion {n} detail changed: {rec['detail']!r}")
    return len(out["criteria"]), len(problems), problems


# ---------------------------------------------------------------- scan --

def parse_scan_csv(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def brute_sample(grids: Sequence[dict], seed: int) -> List[Tuple[str, int]]:
    """(op, r) points checked against method="brute": E4 at the grid's
    smallest modulus, and two seeded points each of E2 and F2."""
    rng = np.random.default_rng([seed, 3])
    sample = []
    for g in grids:
        rs = sorted(g["grid"]["r"])
        picks = [rs[0]] if g["op"] == "e4" else rng.choice(rs, 2, replace=False)
        sample += [(g["op"], int(r)) for r in picks]
    return sample


def scan_oracle(grids: Sequence[dict], seed: int) -> Dict[Tuple[str, int], int]:
    from sievelab import energies

    params = {g["op"]: g["grid"] for g in grids}
    out = {}
    for op, r in brute_sample(grids, seed):
        p = params[op]
        R, j = p["R"][0], p["j"][0]
        if op == "e2":
            rep = energies.energy_e2(R, j, r, method="brute")
        elif op == "e4":
            rep = energies.energy_e4(R, j, r, method="brute")
        else:
            rep = energies.energy_f2(R, j, p["h"][0], r, method="brute")
        out[(op, r)] = rep.energy
    return out


def gate_scan(out: dict, grids: Sequence[dict], oracle: Dict[Tuple[str, int], int],
              first_csv: Dict[str, str]) -> Gate:
    """One record per grid point, a summary row and no truncation row;
    sampled energies equal the brute oracle; the CSV is byte-identical
    to the first pass of the run (first_csv is filled on first use)."""
    problems = []
    attempted = failed = 0
    for g, res in zip(grids, out["grids"]):
        op, rs = g["op"], g["grid"]["r"]
        attempted += len(rs)
        if "error" in res:
            failed += len(rs)
            problems.append(f"{op} scan raised {res['error']}")
            continue
        rows = parse_scan_csv(res["csv"])
        points = {int(row["param_r"]): row for row in rows if row["operation"] == op}
        missing = [r for r in rs if r not in points]
        bad = 0
        if missing:
            problems.append(f"{op}: no record for r={missing}")
        if any(row["operation"] == "truncated" for row in rows):
            bad += 1
            problems.append(f"{op}: scan truncated")
        if sum(row["operation"] == "summary" for row in rows) != 1:
            bad += 1
            problems.append(f"{op}: no summary row")
        for (o, r), energy in oracle.items():
            if o == op and r in points and int(points[r]["out_energy"]) != energy:
                bad += 1
                problems.append(f"{op} r={r}: energy {points[r]['out_energy']} "
                                f"!= brute {energy}")
        if first_csv.setdefault(op, res["csv"]) != res["csv"]:
            bad += 1
            problems.append(f"{op}: CSV differs from the first pass")
        failed += min(len(rs), len(missing) + bad)
    return attempted, failed, problems


# ------------------------------------------------------------- queries --

def _direct_gauss(q: int, a: int, b: int) -> complex:
    n = np.arange(1, q + 1, dtype=np.int64)
    return complex(np.exp(2j * np.pi * ((a * (n * n % q) + b * n) % q) / q).sum())


def _sqrt_ok(q: dict, roots: List[int], exhaustive) -> bool:
    r, m = q["r"], q["m"]
    if roots != sorted(set(roots)) or any(not 0 <= k < r for k in roots):
        return False
    if any((k * k - m) % r for k in roots):
        return False
    return exhaustive is None or roots == exhaustive


def query_oracle(queries: Sequence[dict]) -> List[object]:
    """Per query: the exhaustive root list (r <= 1e5), the direct Gauss
    sum, the brute energy or the direct S4 value; None where the gate has
    no oracle."""
    from sievelab import charsums, energies

    out: List[object] = []
    for q in queries:
        op = q["op"]
        if op == "sqrt_mod_all" and q["r"] <= EXHAUSTIVE_MAX:
            ks = np.arange(q["r"], dtype=np.int64)
            out.append([int(k) for k in ks[ks * ks % q["r"] == q["m"] % q["r"]]])
        elif op in ("gauss_sum_direct", "gauss_sum_closed") and q["q"] <= EXHAUSTIVE_MAX:
            out.append(_direct_gauss(q["q"], q["a"], q["b"]))
        elif op == "energy_e2":
            out.append(energies.energy_e2(q["R"], q["j"], q["r"], method="brute").energy)
        elif op == "energy_f2":
            out.append(energies.energy_f2(q["R"], q["j"], q["h"], q["r"],
                                          method="brute").energy)
        elif op == "s4_closed":
            inp = charsums.S4Input(q["j"], tuple(q["h"]), q["r"])
            out.append(charsums.s4_direct(inp).value)
        else:
            out.append(None)
    return out


def check_query(q: dict, res: dict, oracle) -> str | None:
    """None if the query's result is right, else the problem."""
    if "error" in res:
        return f"{q['op']} {q} raised {res['error']}"
    v, op = res["v"], q["op"]
    if op == "sqrt_mod_all":
        ok = _sqrt_ok(q, v, oracle)
    elif isinstance(v, list):  # a complex value
        ok = all(map(math.isfinite, v))
        if oracle is not None:
            tol = GAUSS_TOL if op.startswith("gauss") else S4_TOL * q["r"] ** 3
            ok = ok and abs(complex(*v) - oracle) <= tol
    elif op in ("energy_e2", "energy_f2"):
        ok = v == oracle
    else:
        ok = math.isfinite(v)
    return None if ok else f"{op} {q}: wrong result {v!r}"


def gate_queries(out: dict, queries: Sequence[dict], oracle: Sequence[object]) -> Gate:
    problems = [p for p in map(check_query, queries, out["results"], oracle) if p]
    return len(queries), len(problems), problems


def gate(workload: str, out: dict, inputs: dict, oracle, state: dict) -> Gate:
    """Dispatch to the workload's gate; state carries per-run memory (the
    first pass's CSV)."""
    if workload == "accept":
        return gate_accept(out, oracle)
    if workload == "scan-energy":
        return gate_scan(out, inputs["grids"], oracle, state.setdefault("csv", {}))
    return gate_queries(out, inputs["queries"], oracle)


def oracle_for(workload: str, inputs: dict, seed: int):
    if workload == "accept":
        return load_reference()
    if workload == "scan-energy":
        return scan_oracle(inputs["grids"], seed)
    return query_oracle(inputs["queries"])
