"""Call tracing from outside the program.

The tracer rebinds every public function of each layer module, in every
``sievelab`` namespace that holds it (``from .sqrtmod import
sqrt_mod_all`` binds the name in ``expsums`` and ``energies`` too, and
``acceptance.CRITERIA`` holds the criteria), to a wrapper that times the
call.  Spans are aggregated per (function, parent function, top-level
call) instead of kept one by one: criterion 10 alone makes millions of
scalar calls.  A function's self time is its duration minus the time its
traced children cover; a layer's self time is the sum over its
functions.  Call counts are deterministic for a fixed input.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import defaultdict
from typing import Dict, List

#: the package's modules, bottom of the stack first; cli is measured by
#: setup_s instead
LAYERS = ("arith", "sqrtmod", "energies", "expsums", "charsums", "sieve",
          "scan", "acceptance")

#: parent name of calls made directly by the benchmark
ROOT = "bench"

#: (metric suffix, traced function, statistic); "s" is inclusive time
FUNCTION_METRICS = (
    ("arith.is_prime.calls", "arith.is_prime", "calls"),
    ("arith.factorize.calls", "arith.factorize", "calls"),
    ("arith.factorize.s", "arith.factorize", "s"),
    ("arith.jacobi.calls", "arith.jacobi", "calls"),
    ("sqrtmod.sqrt_mod_all.calls", "sqrtmod.sqrt_mod_all", "calls"),
    ("sqrtmod.sqrt_mod_all.s", "sqrtmod.sqrt_mod_all", "s"),
    ("sqrtmod.root_pairs.s", "sqrtmod.root_pairs", "s"),
    ("sqrtmod.build_root_multiset.s", "sqrtmod.build_root_multiset", "s"),
    ("energies.energy_e2.s", "energies.energy_e2", "s"),
    ("energies.energy_e4.s", "energies.energy_e4", "s"),
    ("energies.energy_f2.s", "energies.energy_f2", "s"),
    ("expsums.gcal.calls", "expsums.gcal", "calls"),
    ("expsums.gcal.s", "expsums.gcal", "s"),
    ("expsums.esum_jh.s", "expsums.esum_jh", "s"),
    ("charsums.s4_closed.calls", "charsums.s4_closed", "calls"),
    ("charsums.weighted_energy.s", "charsums.weighted_energy", "s"),
    ("sieve.ls_lhs.s", "sieve.ls_lhs", "s"),
    ("sieve.px_monitor.s", "sieve.px_monitor", "s"),
    ("scan.records_to_csv.s", "scan.records_to_csv", "s"),
)

#: the function whose empty results are counted (work a root table skips)
EMPTY_COUNTED = "sqrtmod.sqrt_mod_all"


class Tracer:
    """Aggregated call spans of the wrapped functions of one process."""

    def __init__(self) -> None:
        # (function, parent, top-level call) -> [calls, total s, self s]
        self.stats: Dict[tuple, List[float]] = {}
        self.empty_results = 0
        self._stack: List[list] = [[ROOT, 0.0]]

    def wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        count_empty = name == EMPTY_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            key = (name, parent[0], stack[1][0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                row = stats.get(key)
                if row is None:
                    stats[key] = [1, dt, dt - frame[1]]
                else:
                    row[0] += 1
                    row[1] += dt
                    row[2] += dt - frame[1]
            if count_empty and not result.roots:
                self.empty_results += 1
            return result

        return traced

    def install(self, package: str = "sievelab") -> None:
        """Wrap every public function of each layer wherever it is bound
        inside the package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for space in [vars(mod)] + [v for v in vars(mod).values()
                                        if isinstance(v, dict)]:
                for key, obj in list(space.items()):
                    if isinstance(obj, types.FunctionType) and obj in wrappers:
                        space[key] = wrappers[obj]

    def rows(self) -> List[list]:
        return [[fn, parent, top, int(v[0]), v[1], v[2]]
                for (fn, parent, top), v in sorted(self.stats.items())]


def layer_split(rows: List[list]) -> Dict[str, Dict[str, float]]:
    """Self time by layer under each top-level call (a criterion, a scan
    call, a query function)."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for fn, _, top, _, _, own in rows:
        out[top][fn.split(".")[0]] += own
    return {top: dict(layers) for top, layers in out.items()}


def layer_metrics(rows: List[list], empty_results: int,
                  unit_inverses: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from aggregated rows [function, parent, top-level
    call, calls, total_s, self_s].  Inclusive time skips direct
    self-recursion, so a recursive call is not counted twice."""
    calls: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    for fn, parent, _, n, total, own in rows:
        calls[fn] += n
        if parent != fn:
            inclusive[fn] += total
        self_s[fn.split(".")[0]] += own
    out: Dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for metric, fn, stat in FUNCTION_METRICS:
        out[metric] = calls[fn] if stat == "calls" else inclusive[fn]
    n_sqrt = calls[EMPTY_COUNTED]
    out["sqrtmod.sqrt_mod_all.empty_frac"] = empty_results / n_sqrt if n_sqrt else 0.0
    looked_up = unit_inverses.get("hits", 0) + unit_inverses.get("misses", 0)
    out["expsums.unit_inverses.hit_ratio"] = (unit_inverses.get("hits", 0) / looked_up
                                              if looked_up else 0.0)
    return out
