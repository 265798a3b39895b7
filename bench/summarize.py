"""Median, quartiles and spread of every named metric over many runs.

    python3 bench/run.py --workload queries --seed 1 --trace 0 >> runs.txt
    ...  (one run per seed)
    python3 bench/summarize.py runs.txt

Reads the ``record`` lines that run.py prints and reports, per workload
and metric, the median, the quartiles and the spread (interquartile
distance over the median), the same rule used to judge whether the
benchmark is steady.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

import stats


def collect(lines: Iterable[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from the record lines among lines."""
    out: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for line in lines:
        if line.startswith("record "):
            rec = json.loads(line[len("record "):])
            for name, value in rec["named"].items():
                out[rec["workload"]][name].append(float(value))
    return out


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    lines = ([line for path in paths for line in Path(path).read_text().splitlines()]
             if paths else sys.stdin)
    for workload, metrics in sorted(collect(lines).items()):
        for name, values in sorted(metrics.items()):
            q1, med, q3 = stats.quartiles(values)
            print(f"{workload:12s} {name:40s} n={len(values):3d} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={stats.spread(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
