"""Compare two sets of saved benchmark runs, metric by metric.

Each argument is a directory of files holding the standard output of
``e2ebench/run.py`` runs (one run per file, any names).  Runs are grouped
by workload and trace mode; for each metric the two medians are compared
against the metric's bound in ``BENCHMARK.json``::

    python3 e2ebench/compare.py parent-runs/ change-runs/

Runs whose environment lines differ (kernel backend, Python, numpy, host,
CPU count) are refused: on the pure-Python kernels the routing share of
``paper-compare`` is ~5x larger, so such a comparison measures the
machine, not the change.  So are sets holding a run with a failed or wrong
output (``correct: false``): its quality totals leave that output out.  Exit
status: 0 when nothing regressed beyond its bound, 1 when something did or
a run of the second set failed, 2 when the runs may not be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> Tuple[List[dict], Dict[str, Dict[str, List[float]]], List[str]]:
    """Environment records, ``{workload/trace: {metric: [values]}}`` and the failed runs of a directory."""
    environments, values, failed = [], {}, []
    for name in sorted(os.listdir(directory)):
        lines = [line for line in open(os.path.join(directory, name)) if line.startswith("{")]
        records = [json.loads(line) for line in lines]
        env = next((r["environment"] for r in records if "environment" in r), None)
        details = next((r["details"] for r in records if "details" in r), {})
        result = records[-1] if records and "metrics" in records[-1] else None
        if env is None or result is None:
            continue
        environments.append(env)
        if result["correct"] is not True or result["failed"]:
            failed.append(f"{name}: {result['failed']} of {result['attempted']} outputs failed")
        group = values.setdefault(f"{details.get('workload', name)}", {})
        for metric, entry in result["metrics"].items():
            group.setdefault(metric, []).append(entry["value"])
    return environments, values, failed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    (env_a, runs_a, failed_a), (env_b, runs_b, failed_b) = load(argv[0]), load(argv[1])
    keys = ("kernels_backend", "python", "numpy", "host", "cpus")
    facts = {tuple(env.get(k) for k in keys) for env in env_a + env_b}
    if len(facts) != 1:
        print(f"refusing to compare runs from different environments {sorted(facts)}")
        return 2
    if failed_a:
        print("refusing to compare against runs with failed outputs:", *failed_a, sep="\n  ")
        return 2
    if failed_b:
        print("REGRESSED: runs with failed outputs:", *failed_b, sep="\n  ")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = 0
    for group in sorted(set(runs_a) & set(runs_b)):
        for metric in sorted(set(runs_a[group]) & set(runs_b[group])):
            before = statistics.median(runs_a[group][metric])
            after = statistics.median(runs_b[group][metric])
            change = (after - before) / before if before else 0.0
            line = f"{group:24s} {metric:30s} {before:14.6g} -> {after:14.6g} ({change:+.1%})"
            if metric in bounds:
                bound, better = bounds[metric]
                regressed = change > bound if better == "lower" else -change > bound
                worse += regressed
                line += "  REGRESSED" if regressed else ""
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
