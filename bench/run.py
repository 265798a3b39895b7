"""sievelab benchmark: accept, scan-energy and queries.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of queries, scan-energy, accept, or all.  With --trace 0
the run measures set-up (fresh interpreters importing sievelab.cli), then
runs passes of the workload, each in a fresh process, until S seconds
have gone and at least MIN_PASSES[NAME] passes are done; a pass of
accept takes about 85 s, so accept runs one pass.  With --trace 1 it runs
one untraced and one traced pass side by side and reports per-layer
metrics.  Every pass is gated for correctness in this process, after the
pass and outside its timing.  The bounded times are in reference
seconds: wall time rescaled by a speed probe timed next to the work
(probe.py), so that the drifting speed of a shared host cancels out.

Output: a human-readable report, a ``record`` line with the machine and
provenance record and every named metric, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  No machine-wide
profiler, page-cache drop or CPU-frequency setting is used: measurement
covers the benchmark's own processes only.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

# numpy's OpenBLAS runs on one thread in this process and every process
# it starts: on a 2-vCPU machine a second BLAS thread spinning beside the
# pass slows it by up to half, at random
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

import gates  # noqa: E402
import probe  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: passes per untraced run, at least: three give each item a median that
#: drops one disturbed pass (accept's ~85 s pass runs once)
MIN_PASSES = {"queries": 3, "scan-energy": 3, "accept": 1}
#: fresh interpreters timed for setup_s, after one untimed warm-up
SETUP_SPAWNS = 9
SETUP_CODE = "import sievelab.cli as cli; cli.build_parser()"
#: a run stops starting passes so that it ends within this many seconds
RUN_LIMIT_S = 170.0

#: end-to-end metrics (every workload, --trace 0): name -> unit
END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics (every workload, --trace 1): name -> unit
PER_LAYER = {f"{layer}.self_s": "s" for layer in tracer.LAYERS}
PER_LAYER.update({m: ("count" if s == "calls" else "s")
                  for m, _, s in tracer.FUNCTION_METRICS})
PER_LAYER["sqrtmod.sqrt_mod_all.empty_frac"] = "fraction"
PER_LAYER["expsums.unit_inverses.hit_ratio"] = "fraction"
PER_LAYER.update({f"acceptance.c{n}_s": "s" for n in range(1, 11)})
PER_LAYER["trace.overhead_frac"] = "fraction"

SUITES = {"oracles_s": (1, 2, 3), "identities_s": (4, 5, 8),
          "constants_s": (6, 7, 9), "monitors_s": (10,)}

NOTE = ("no machine-wide profiler, page-cache drop or CPU-frequency setting "
        "is used; measurement covers the benchmark's own processes only")


# ------------------------------------------------------------ processes --

def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(workload: str, inputs: dict, trace: bool) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), text=True, cwd=ROOT)
    proc.stdin.write(json.dumps({"workload": workload, "inputs": inputs,
                                 "trace": trace}))
    proc.stdin.close()
    proc.stdin = None  # written in full; communicate() only reads
    return proc


def _collect(proc: subprocess.Popen, deadline: float) -> dict:
    """The worker's output, or {"error": ...} if it failed or overran."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "pass overran the run's time limit"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-500:]}"}
    return json.loads(out)


def measure_setup() -> List[List[float]]:
    """[wall, reference] seconds of fresh interpreters that import the CLI
    and build its parser: what every CLI call pays before any work.  The
    speed probe runs in this process before and after each one."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    run = dict(env=_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    subprocess.run(cmd, **run)  # writes bytecode caches once
    times = []
    after = probe.probe_s()
    for _ in range(SETUP_SPAWNS):
        before = after
        t0 = time.perf_counter()
        subprocess.run(cmd, **run)
        wall = time.perf_counter() - t0
        after = probe.probe_s()
        times.append([wall, probe.reference_time(wall, before, after)])
    return times


# ------------------------------------------------------------ provenance --

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy  # noqa: F401  (loads the library)

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return res.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(), "source_sha256": _source_digest(), "note": NOTE,
        "probe_nominal_s": probe.NOMINAL_S, "probe_interval_s": probe.INTERVAL_S,
    }


# --------------------------------------------------------------- metrics --

def workload_metrics(workload: str, passes: List[dict], inputs: dict) -> Dict[str, float]:
    """Every named metric of the workload, from the untraced passes.
    Times are per-item medians over the passes (stats.item_medians) of
    reference times (probe.py); an item is a criterion, a scan grid or a
    query.  verdict_wall_s is the same sum over wall times."""
    items = stats.item_medians([p["items_ref_s"] for p in passes])
    m = {"verdict_s": sum(items),
         "verdict_wall_s": sum(stats.item_medians([p["items_s"] for p in passes])),
         "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in passes])}
    if workload == "accept":
        by_n = {c["n"]: s for c, s in zip(passes[0]["criteria"], items)}
        for name, members in SUITES.items():
            m[name] = sum(by_n[n] for n in members)
        m.update({f"c{n}_s": s for n, s in by_n.items()})
    elif workload == "scan-energy":
        m["points"] = sum(len(g["grid"]["r"]) for g in inputs["grids"])
        m["points_per_s"] = m["points"] / m["verdict_s"]
        m.update({f"{g['op']}_grid_s": s for g, s in zip(inputs["grids"], items)})
    else:
        queries = inputs["queries"]
        m["queries_per_s"] = len(queries) / m["verdict_s"]
        lat = [s * 1e3 for s in items]
        m["query_p50_ms"] = stats.percentile(lat, 50)
        m["query_p99_ms"] = stats.percentile(lat, 99)
        m["query_samples"] = len(lat)
        tail = stats.tail_report(lat)
        m["query_tail_p"], m["query_tail_ms"] = tail["p"], tail["value"]
        for op in sorted({q["op"] for q in queries}):
            m[f"{op}_p50_ms"] = stats.percentile(
                [t for q, t in zip(queries, lat) if q["op"] == op], 50)
    return m


def layer_report(workload: str, untraced: dict, traced: dict) -> Dict[str, float]:
    t = traced["trace"]
    m = tracer.layer_metrics(t["rows"], t["empty_results"], t["unit_inverses"])
    for n in range(1, 11):
        m[f"acceptance.c{n}_s"] = (
            next(s for c, s in zip(untraced["criteria"], untraced["items_ref_s"])
                 if c["n"] == n)
            if workload == "accept" else 0.0)
    m["trace.overhead_frac"] = traced["pass_s"] / untraced["pass_s"] - 1.0
    return m


# ------------------------------------------------------------------ runs --

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    load_before = os.getloadavg()
    inputs = workloads.generate(workload, seed)
    oracle = gates.oracle_for(workload, inputs, seed)
    setup = [] if trace else measure_setup()
    passes: List[dict] = []
    if trace:
        procs = [_spawn(workload, inputs, False), _spawn(workload, inputs, True)]
        passes = [_collect(p, deadline) for p in procs]
    else:
        t0 = time.monotonic()
        while True:
            passes.append(_collect(_spawn(workload, inputs, False), deadline))
            spent = time.monotonic() - t0
            if len(passes) >= MIN_PASSES[workload] and spent >= seconds:
                break
            if time.monotonic() + 1.5 * spent / len(passes) > deadline:
                break
    attempted = failed = 0
    problems: List[List[str]] = []
    state: dict = {}
    for out in passes:
        if "error" in out:
            a, f, pr = 1, 1, [out["error"]]
        else:
            a, f, pr = gates.gate(workload, out, inputs, oracle, state)
        attempted += a
        failed += f
        problems.append(pr)
    good = [p for p in passes if "error" not in p]
    named, split = {}, {}
    if trace:
        if len(good) == 2:
            named = layer_report(workload, *passes)
            split = tracer.layer_split(passes[1]["trace"]["rows"])
        metrics = {k: (named[k], unit) for k, unit in PER_LAYER.items() if k in named}
    else:
        if good:
            named = workload_metrics(workload, good, inputs)
        if setup:
            named["setup_s"] = stats.median([ref for _, ref in setup])
            named["setup_wall_s"] = stats.median([wall for wall, _ in setup])
        named["error_rate"] = failed / attempted
        metrics = {k: (named[k], unit) for k, unit in END_TO_END.items() if k in named}
    complete = len(metrics) == len(PER_LAYER if trace else END_TO_END)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "setup_samples_s": setup,
        "pass_s": [p.get("pass_s") for p in passes],
        "pass_ref_s": [p.get("pass_ref_s") for p in passes],
        "correct": failed == 0 and complete, "attempted": attempted, "failed": failed,
        "problems": [p for pr in problems for p in pr][:20],
        "named": named, "metrics": metrics, "split": split,
        "load_before": load_before, "load_after": os.getloadavg(),
        "wall_s": time.monotonic() - start,
    }


def _unit(name: str) -> str:
    """Unit of a printed metric, from the naming convention."""
    if name in END_TO_END or name in PER_LAYER:
        return END_TO_END.get(name) or PER_LAYER[name]
    if name.endswith("_per_s"):
        return name.split("_per_s")[0] + "/s"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_p", "%")):
        if name.endswith(suffix):
            return unit
    return "fraction" if name == "error_rate" else "count"


def _print_report(res: dict, machine: dict) -> None:
    head = (f"workload {res['workload']}  seed {res['seed']}  passes {res['passes']}"
            f"  trace {int(res['trace'])}  correct {res['correct']}"
            f"  failed {res['failed']}/{res['attempted']}")
    print(head)
    for problem in res["problems"]:
        print(f"  FAIL {problem}")
    for name, value in res["named"].items():
        print(f"  {name:40s} {value:.6g} {_unit(name)}")
    for top, layers in sorted(res["split"].items()):
        total = sum(layers.values())
        if total <= 0:
            continue
        shares = ", ".join(f"{layer} {s / total:.1%}" for layer, s in
                           sorted(layers.items(), key=lambda kv: -kv[1]) if s >= 0.005 * total)
        print(f"  self time under {top} ({total:.3g} s): {shares}")
    record = dict(res, machine=machine)
    record.pop("metrics")
    print("record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sievelab" / "__init__.py").is_file():
        print(f"error: no sievelab source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    machine = machine_record()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(res, machine)
        results.append(res)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": u}
                   for r in results for k, (v, u) in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
