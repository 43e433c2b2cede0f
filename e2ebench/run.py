"""End-to-end, layer-attributed benchmark of the ReQISC compiler and daemon.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload paper-compare --seed 1 --seconds 15 --trace 0

It builds the package with ``setup.py`` into ``.bench_build/`` (so the native
SABRE kernel is used when a C compiler is present), runs one workload on
inputs generated from ``--seed``, checks every output, and prints a JSON
line of environment facts, a JSON line of details (sample counts, worst
infidelity, setup samples) and, last, the result object.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same work with the
layer wrappers of :mod:`e2ebench.trace` on and reports the per-layer
metrics.  See ``e2ebench/NOTES.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-compare", "serve-mix")
#: ``--seconds`` that one unit of each workload's fixed work is sized for.
NOMINAL_SECONDS = 15


def build() -> str:
    """Build the package with setup.py; return the directory to import it from."""
    if not os.path.exists(os.path.join(ROOT, "setup.py")):
        raise SystemExit("e2ebench: no setup.py at the checkout root; nothing to build")
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", os.path.join(BUILD_DIR, "build")],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    libs = glob.glob(os.path.join(BUILD_DIR, "build", "lib*"))
    if len(libs) != 1:
        raise SystemExit(f"e2ebench: expected one build/lib* directory, found {libs}")
    return libs[0]


def use_build(lib: str) -> None:
    sys.path.insert(0, lib)
    sys.path.insert(1, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(lib)):
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, not the build")


def environment() -> dict:
    """Facts that must match before two runs may be compared."""
    import numpy

    import repro

    info = repro.kernels_backend_info()
    return {
        "kernels_backend": info["backend"],
        "kernels_requested": info["requested"],
        "kernels_error": info["native_error"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def layer_metrics(tracer, outcome) -> dict:
    """The per-layer metrics from the spans and counters of a traced run."""
    from e2ebench.trace import LINALG, PASSES

    totals = tracer.totals()
    counters = tracer.counters

    def total(name, key):
        return totals.get(name, {}).get(key, 0.0)

    compile_wall = total("target.compile", "s")
    compile_self = total("target.compile", "self_s")
    metrics = {
        "target.compile.calls": total("target.compile", "calls"),
        "target.compile.self_s": compile_self,
    }
    metrics.update(outcome.details.pop("layer_counters"))
    for name in PASSES:
        key = f"passes.{name}"
        metrics[f"{key}.s"] = total(key, "s")
        metrics[f"{key}.calls"] = total(key, "calls")
        metrics[f"{key}.gates_out"] = counters.get(f"{key}.gates_out", 0.0)
    metrics["passes.mirror_near_identity.mirrored"] = counters.get(
        "passes.mirror_near_identity.mirrored", 0.0
    )
    for _, function in LINALG:
        metrics[f"linalg.{function}.calls"] = total(f"linalg.{function}", "calls")
        metrics[f"linalg.{function}.s"] = total(f"linalg.{function}", "s")
    for name in ("two_qubit_to_cnot", "approximate"):
        metrics[f"synthesis.{name}.calls"] = total(f"synthesis.{name}", "calls")
        metrics[f"synthesis.{name}.s"] = total(f"synthesis.{name}", "s")
    noise_passes = counters.get("routing.noise_passes", 0.0)
    metrics.update(
        {
            "routing.runs": total("routing.run", "calls"),
            "routing.s": total("routing.run", "s"),
            "routing.step_limit_hits": counters.get("routing.step_limit_hits", 0.0),
            "routing.noise_fallback_share": (
                counters.get("routing.noise_fallbacks", 0.0) / noise_passes if noise_passes else 0.0
            ),
            "routing.inserted_swaps": counters.get("routing.inserted_swaps", 0.0),
            "routing.absorbed_swaps": counters.get("routing.absorbed_swaps", 0.0),
            "kernels.sabre_score.calls": total("kernels.sabre_score", "calls"),
            "kernels.sabre_score.s": total("kernels.sabre_score", "s"),
            "kernels.kak_batch.calls": total("kernels.kak_batch", "calls"),
            "kernels.kak_batch.items": counters.get("kernels.kak_batch.items", 0.0),
            "kernels.kak_batch.s": total("kernels.kak_batch", "s"),
        }
    )
    metrics["trace.unattributed_share"] = compile_self / compile_wall if compile_wall else 0.0
    return metrics


def program_counters(before: dict) -> dict:
    """Counters the program keeps itself, as deltas since ``before``."""
    from repro.gates.gate import matrix_cache_stats
    from repro.ir import conversion_stats
    from repro.kernels.kak_batch import batch_stats

    matrix = matrix_cache_stats()
    conversions = conversion_stats()
    batch = batch_stats()
    hits = matrix["hits"] - before["matrix"]["hits"]
    misses = matrix["misses"] - before["matrix"]["misses"]
    inputs = batch["inputs"] - before["batch"]["inputs"]
    interned = batch["interned"] - before["batch"]["interned"]
    return {
        "ir.conversions": float(
            sum(conversions[k] - before["conversions"][k] for k in conversions)
        ),
        "gates.matrix_cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "kernels.kak_batch.unique_share": (inputs - interned) / inputs if inputs else 0.0,
    }


def counter_snapshot() -> dict:
    from repro.gates.gate import matrix_cache_stats
    from repro.ir import conversion_stats
    from repro.kernels.kak_batch import batch_stats

    return {
        "matrix": matrix_cache_stats(),
        "conversions": conversion_stats(),
        "batch": batch_stats(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload is None:
        parser.error("--workload is required")

    lib = build()
    use_build(lib)
    from e2ebench import workloads as W

    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    scale = max(1, round(args.seconds / NOMINAL_SECONDS))

    tracer = None
    if args.trace:
        from e2ebench.trace import Tracer, install, overhead_share

        tracer = Tracer()
        install(tracer)

    before = counter_snapshot()
    if args.workload == "serve-mix":
        from e2ebench import serve_mix

        outcome = serve_mix.run(args.seed, scale, lib, ROOT, BUILD_DIR, tracer)
    else:
        outcome = W.paper_compare(args.seed, scale, tracer)
    setup = outcome.details.pop("setup_samples")
    counters = outcome.details.setdefault("layer_counters", {})
    counters.update(program_counters(before))

    if tracer is not None:
        metrics = layer_metrics(tracer, outcome)
        tracer.save(os.path.join(BUILD_DIR, "trace", f"{args.workload}-{args.seed}.npz"))
        share, bare_s, traced_s = overhead_share(tracer, outcome.replays)
        metrics["trace.overhead_share"] = share
        outcome.details["overhead_replays"] = {
            "count": len(outcome.replays), "bare_s": bare_s, "traced_s": traced_s
        }
    else:
        outcome.details.pop("layer_counters", None)
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_share"] = (outcome.attempted - outcome.failed) / outcome.attempted

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    if args.trace:
        # The in-process workloads run no daemon: its counters read zero.
        for name in units:
            if name.startswith("service."):
                metrics.setdefault(name, 0.0)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"e2ebench: metrics not produced: {missing}")
    outcome.details["setup_samples_s"] = setup
    outcome.details["workload"] = f"{args.workload}/trace{args.trace}"
    print(json.dumps({"details": outcome.details}, default=str), flush=True)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
