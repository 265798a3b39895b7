"""One timed pass of one workload, in a fresh process.

Reads a job {"workload", "inputs", "trace"} as JSON on stdin and writes
the pass's timings and raw outputs as JSON on stdout.  Correctness gates
run in the parent, outside the timed region and outside this process,
whose peak RSS is reported.  Each operation's failure is recorded and
the pass goes on.  An untraced pass runs the speed probe (probe.py)
around and during its work and reports its times in wall seconds and
in reference seconds.

Run by ``run.py`` with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

import numpy as np

import sievelab
from sievelab import (acceptance, charsums, energies, expsums, scan, sieve,
                      sqrtmod)
import probe
from tracer import Tracer

clock = time.perf_counter


def run_accept(inputs):
    """The criteria of the suite, in suite order, as `sievelab accept` runs
    them."""
    criteria, spans = [], []
    start = clock()
    for n in acceptance.SUITES[inputs["suite"]]:
        t0 = clock()
        try:
            res = acceptance.CRITERIA[n]()
            rec = {"n": n, "passed": bool(res.passed), "monitor": bool(res.monitor),
                   "detail": res.detail}
        except Exception as exc:  # one failing criterion never aborts the pass
            rec = {"n": n, "error": repr(exc)}
        spans.append((t0, clock()))
        criteria.append(rec)
    return {"span": (start, clock()), "spans": spans, "criteria": criteria}


def run_scan_energy(inputs):
    """run_scan over each grid, each result serialized to CSV."""
    grids, spans = [], []
    start = clock()
    for g in inputs["grids"]:
        t0 = clock()
        try:
            spec = scan.ScanSpec(g["op"], g["grid"], budget=inputs["budget"])
            text = scan.records_to_csv(scan.run_scan(spec))
            rec = {"op": g["op"], "csv": text}
        except Exception as exc:
            rec = {"op": g["op"], "error": repr(exc)}
        spans.append((t0, clock()))
        grids.append(rec)
    return {"span": (start, clock()), "spans": spans, "grids": grids}


def _prepare(q):
    """(module, function name, args) of one query; inputs are built before
    the clock starts, the program's own validation runs inside it."""
    op = q["op"]
    if op == "sqrt_mod_all":
        return sqrtmod, op, (q["m"], q["r"])
    if op in ("gauss_sum_direct", "gauss_sum_closed"):
        return expsums, op, (q["q"], q["a"], q["b"])
    if op == "gcal":
        return expsums, op, tuple(q[k] for k in ("q", "a", "b", "j", "k", "u", "s"))
    if op == "esum_jh":
        return expsums, op, tuple(q[k] for k in ("l", "n", "j", "h", "r"))
    if op == "energy_e2":
        return energies, op, (q["R"], q["j"], q["r"])
    if op == "energy_f2":
        return energies, op, (q["R"], q["j"], q["h"], q["r"])
    if op == "s4_closed":
        return charsums, op, (q["j"], tuple(q["h"]), q["r"])
    if op == "px_monitor":
        return sieve, op, (Fraction(*q["x"]), q["Q"], q["N"])
    if op == "ls_lhs":
        rng = np.random.default_rng(q["coef_seed"])
        coeffs = rng.standard_normal(q["N"]) + 1j * rng.standard_normal(q["N"])
        return sieve, op, (q["M"], coeffs, q["Q"])
    raise ValueError(f"unknown query {op!r}")


def _call(mod, name, args):
    # looked up at call time, so a traced run sees the wrapped function
    fn = getattr(mod, name)
    if name == "s4_closed":
        return fn(charsums.S4Input(*args))
    if name == "ls_lhs":
        M, coeffs, Q = args
        return fn(sieve.SieveInstance(M, coeffs, Q), moduli="squares")
    return fn(*args)


def _plain(result):
    """A JSON value for the gates: roots, a complex pair, or a number."""
    if isinstance(result, sqrtmod.RootSet):
        return list(result.roots)
    if isinstance(result, expsums.ExpSumValue):
        return [result.value.real, result.value.imag]
    if isinstance(result, energies.EnergyReport):
        return result.energy
    if isinstance(result, dict):
        return result["count"]
    return float(result)


def run_queries(inputs):
    """A closed loop with one caller: each query starts when the previous
    one has returned."""
    calls = [_prepare(q) for q in inputs["queries"]]
    spans, results = [], []
    start = clock()
    for mod, name, args in calls:
        t0 = clock()
        try:
            value = _call(mod, name, args)
            spans.append((t0, clock()))
            results.append({"v": _plain(value)})
        except Exception as exc:
            spans.append((t0, clock()))
            results.append({"error": repr(exc)})
    return {"span": (start, clock()), "spans": spans, "results": results}


RUNNERS = {"accept": run_accept, "scan-energy": run_scan_energy,
           "queries": run_queries}


def peak_rss_mb() -> float:
    """Peak RSS of this process image.  VmHWM starts afresh at exec;
    ru_maxrss would also carry the parent's peak across fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(out: dict, speed: probe.SpeedLog | None) -> None:
    """Replace the pass's spans by durations: wall time with the probes
    left out (pass_s, items_s) and, when probes were taken, reference
    time (pass_ref_s, items_ref_s)."""
    span, spans = out.pop("span"), out.pop("spans")
    if speed is None:
        out["pass_s"] = span[1] - span[0]
        out["items_s"] = [t1 - t0 for t0, t1 in spans]
        return
    scale = probe.Rescaler(speed.marks)
    out["pass_s"] = scale.work(span)
    out["items_s"] = [scale.work(s) for s in spans]
    out["pass_ref_s"] = scale.reference(span)
    out["items_ref_s"] = [scale.reference(s) for s in spans]
    out["probes"] = len(speed.marks)


def main() -> int:
    job = json.load(sys.stdin)
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install(sievelab.__name__)
    # the traced pass takes no probes, so its spans hold only program work
    speed = None if tracer is not None else probe.SpeedLog()
    if speed is not None:
        speed.start()
    out = RUNNERS[job["workload"]](job["inputs"])
    if speed is not None:
        speed.stop()
    timings(out, speed)
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        cache = getattr(expsums, "_unit_inverses", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        out["trace"] = {"rows": tracer.rows(), "empty_results": tracer.empty_results,
                        "unit_inverses": ({"hits": info.hits, "misses": info.misses}
                                          if info else {})}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
