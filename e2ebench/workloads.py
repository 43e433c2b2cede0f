"""The in-process workload ``paper-compare`` and helpers shared with ``serve-mix``.

``paper-compare`` compiles a fixed, seeded list of programs one at a time
in each of four fresh processes, timing every ``compile()`` call and
keeping each compile's fastest round; then, outside the timed section,
checks every output with :mod:`e2ebench.check` and derives the quality
metrics.
The list is a pure function of ``(seed, scale)``, so the same seed gives the
same work and the same deterministic quality figures on every run.
"""

from __future__ import annotations

import math
import os
import pickle
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from e2ebench import programs as P
from e2ebench.check import CheckError, check_compiled
from e2ebench.trace import recording

#: Calibrated presets of the paper comparison and the pipelines compiled on each.
PAPER_PRESETS = ("xy-line-cal", "xy-grid-cal", "heavy-hex-cal")
PAPER_PIPELINES = ("qiskit-like", "reqisc-full", "reqisc-noise")
#: The fixed dense programs of ``paper-compare``: (generator label, qubits).
FIXED_DENSE = (("dense12", 12), ("dense13", 13), ("dense13b", 13), ("dense14", 14))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def p99(values: List[float]) -> Tuple[float, float]:
    """The 99th percentile, or :func:`tail` when it has under ten samples beyond it."""
    value, percentile = tail(values)
    if percentile > 99.0:
        ordered = sorted(values)
        value = ordered[math.ceil(0.99 * len(ordered)) - 1]
        percentile = 99.0
    return value, percentile


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Compiling and checking
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One compile of the workload: a program on a target with a pipeline."""

    circuit: Any
    target: Any
    spec: Any  # a pipeline name or PipelineSpec
    cache: Any = None
    #: Programs a daemon returned for this job, to compare byte for byte.
    answers: List[str] = field(default_factory=list)
    result: Any = None
    seconds: float = 0.0
    error: Optional[str] = None
    #: Compile seconds of each round (see :func:`compile_rounds`).
    samples: List[float] = field(default_factory=list)
    digest: Optional[str] = None


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    details: Dict[str, Any] = field(default_factory=dict)
    #: Fresh compiles of parts of the timed work, each returning its compile
    #: seconds; a traced run times them with and without the wrappers.
    replays: List[Callable[[], float]] = field(default_factory=list)


def run_job(job: Job) -> None:
    """Compile ``job``, timing only the ``compile()`` call."""
    import repro.target.api as api

    start = time.perf_counter()
    try:
        job.result = api.compile(
            job.circuit, target=job.target, spec=job.spec, synthesis_cache=job.cache
        )
    except Exception as exc:  # noqa: BLE001 - a failed compile is a counted failure
        job.error = f"{type(exc).__name__}: {exc}"
    job.seconds = time.perf_counter() - start


def replay(jobs: List[Job], shared_cache: bool = False) -> Callable[[], float]:
    """Compile ``jobs`` again as the timed loop did; the callable returns the compile seconds.

    ``shared_cache`` gives the jobs one fresh synthesis cache, as
    ``paper-compare`` gives the nine compiles of one program.
    """

    def run() -> float:
        from repro.service.cache import SynthesisCache

        cache = SynthesisCache(capacity=None) if shared_cache else None
        twins = [Job(job.circuit, job.target, job.spec, cache=cache) for job in jobs]
        for twin in twins:
            run_job(twin)
        return sum(twin.seconds for twin in twins)

    return run


def check_job(job: Job, failures: List[str]) -> Optional[float]:
    """Semantically check one compiled job; return ``1 - F`` or record a failure."""
    if job.error is not None:
        failures.append(f"{job.circuit.name}/{job.spec}: {job.error}")
        return None
    coupling = job.result.target.coupling_map
    edges = None if coupling is None else {tuple(edge) for edge in coupling.edges}
    try:
        return check_compiled(job.circuit, job.result.circuit, job.result.properties, edges)
    except CheckError as exc:
        failures.append(f"{job.circuit.name}/{job.spec}/{job.result.target.name}: {exc}")
        return None


@dataclass
class Checked:
    """What checking one job established: its ``1 - F``, or why it failed, and its quality.

    ``mismatched`` counts the daemon answers for the job that are not byte
    for byte the checked output (all of them when the output failed).
    """

    infidelity: Optional[float] = None
    failure: Optional[str] = None
    facts: Optional[Dict[str, float]] = None
    mismatched: int = 0


def output_facts(job: Job) -> Dict[str, float]:
    """Quality figures of one compiled output (see :func:`quality`)."""
    result = job.result
    return {
        "pulse_duration": result.duration(),
        "num_2q": result.num_two_qubit_gates,
        "depth_2q": result.two_qubit_depth,
        "distinct_2q": result.distinct_two_qubit_gates,
        "log_fidelity": calibrated_twin(result.target).calibration.estimated_log_fidelity(
            result.circuit
        ),
        "input_2q": sum(1 for inst in job.circuit.instructions if len(inst.qubits) >= 2),
    }


def _check_one(job: Job) -> Checked:
    if job.result is None and job.error is None:
        run_job(job)
    failures: List[str] = []
    try:
        infidelity = check_job(job, failures)
        mismatched = len(job.answers)
        if not failures:
            from repro.qasm import dumps

            expected = dumps(job.result.circuit)
            mismatched = sum(1 for answer in job.answers if answer != expected)
        facts = output_facts(job) if job.error is None else None
    except Exception as exc:  # noqa: BLE001 - an output that cannot be checked fails
        failure = f"{job.circuit.name}: checker {type(exc).__name__}: {exc}"
        return Checked(failure=failure, mismatched=len(job.answers))
    return Checked(infidelity, failures[0] if failures else None, facts, mismatched)


def check_worker() -> None:
    """A checker process: read pickled jobs from stdin, write pickled :class:`Checked` to stdout."""
    while True:
        try:
            job = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        pickle.dump(_check_one(job), sys.stdout.buffer)
        sys.stdout.buffer.flush()


def check_all(jobs: List[Job]) -> List[Checked]:
    """Check every job in at most two checker processes, biggest first.

    A job not compiled yet is compiled by its checker first (reference
    outputs that are not timed).  Returns one :class:`Checked` per job, in
    order.  Each checker gets one BLAS thread: two checkers each spinning
    the default two threads on a two-core host run 3x slower.  The
    checkers are plain subprocesses (no ``multiprocessing``, whose resource
    tracker would outlive the run), closed and waited for on every path.
    """
    order = sorted(
        range(len(jobs)),
        key=lambda i: -len(jobs[i].circuit.instructions) * 2 ** jobs[i].circuit.num_qubits,
    )
    todo: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    for index in order:
        todo.put(index)
    results: List[Optional[Checked]] = [None] * len(jobs)

    def feed(proc: subprocess.Popen) -> None:
        while True:
            try:
                index = todo.get_nowait()
            except queue.Empty:
                return
            pickle.dump(jobs[index], proc.stdin)
            proc.stdin.flush()
            results[index] = pickle.load(proc.stdout)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    procs: List[subprocess.Popen] = []
    try:
        for _ in range(min(2, os.cpu_count() or 1)):
            procs.append(_child("check_worker", env))
        threads = [threading.Thread(target=feed, args=(proc,)) for proc in procs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for proc in procs:
            _close(proc)
    if any(result is None for result in results):
        raise RuntimeError("a checker process died before checking every output")
    return results


#: Fresh processes ``paper-compare`` compiles its jobs in, and how many of
#: them run at once (one per core).
ROUNDS = 4
PARALLEL = min(2, os.cpu_count() or 1)


def _child(function: str, env: Dict[str, str]) -> subprocess.Popen:
    """A Python child running ``e2ebench.workloads.<function>()`` over pickle pipes."""
    command = [sys.executable, "-c", f"from e2ebench.workloads import {function}; {function}()"]
    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)


def _close(proc: subprocess.Popen) -> None:
    """Close a child's pipes and wait for it to end, killing it if it does not."""
    try:
        proc.stdin.close()
        proc.wait(timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _digest(result) -> str:
    """What must repeat across rounds: the output program and its layouts."""
    from repro.qasm import dumps

    props = result.properties
    return repr((dumps(result.circuit), props.get("final_layout"), props.get("mirror_permutation")))


def compile_worker() -> None:
    """A round process: set up, say so, then compile the jobs it was sent.

    Reads ``(jobs, presets, pipelines, keep, spawned)`` from stdin, where
    each job is ``(circuit, (preset, qubits), spec, group)`` and ``spawned``
    is the ``time.monotonic()`` at which the parent started this process.
    Set-up resolves every target, builds every pipeline and compiles one
    small program per preset and pipeline; then it writes its set-up
    seconds.  Compiles share one synthesis cache per group.  Writes one
    ``(seconds, error, result or None, digest)`` per job (results only when
    ``keep``) and the process's peak RSS in MB.
    """
    from repro.service.cache import SynthesisCache
    from repro.target.pipeline import named_pipeline
    from repro.target.target import resolve_target

    jobs, presets, pipelines, keep, spawned = pickle.load(sys.stdin.buffer)
    targets = {where: resolve_target(where[0], num_qubits=where[1]) for _, where, _, _ in jobs}
    for spec in pipelines:
        named_pipeline(spec)
    warm_up([resolve_target(p, num_qubits=jobs[0][0].num_qubits) for p in presets], pipelines)
    pickle.dump(time.monotonic() - spawned, sys.stdout.buffer)
    sys.stdout.buffer.flush()

    caches: Dict[Any, Any] = {}
    rows = []
    for circuit, where, spec, group in jobs:
        cache = caches.setdefault(group, SynthesisCache(capacity=None))
        job = Job(circuit, targets[where], spec, cache=cache)
        run_job(job)
        digest = None if job.error else _digest(job.result)
        rows.append((job.seconds, job.error, job.result if keep else None, digest))
    pickle.dump((rows, peak_rss_mb()), sys.stdout.buffer)
    sys.stdout.buffer.flush()


def compile_rounds(
    jobs: List[Job], groups: List[Any], presets, pipelines
) -> Tuple[List[float], float]:
    """Compile ``jobs`` in :data:`ROUNDS` fresh processes, :data:`PARALLEL` at a time.

    Every round is the same work from the same cold start (the compiler's
    process-wide caches included).  A job's ``seconds`` is its fastest
    round.  The host's speed swings by up to 2x within seconds and differs
    between its cores for minutes at a time; rounds that run at once sit on
    different cores, and the fastest of four rounds is far steadier than
    any one of them.  Each ``job.target`` is ``(preset, qubits)`` on entry
    and the compiled target on return; results come from the first round,
    and a job whose output differs in a later round fails.  Returns each
    round's set-up seconds (spawn to ready) and the median peak RSS of the
    rounds.
    """
    payload = [(job.circuit, job.target, job.spec, group) for job, group in zip(jobs, groups)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    setup, peaks, rounds = [], [], []
    for first in range(0, ROUNDS, PARALLEL):
        procs: List[subprocess.Popen] = []
        try:
            for index in range(first, min(ROUNDS, first + PARALLEL)):
                spawned = time.monotonic()
                procs.append(_child("compile_worker", env))
                pickle.dump((payload, presets, pipelines, index == 0, spawned), procs[-1].stdin)
                procs[-1].stdin.flush()
            setup += [pickle.load(proc.stdout) for proc in procs]
            for proc in procs:
                rows, peak = pickle.load(proc.stdout)
                rounds.append(rows)
                peaks.append(peak)
        finally:
            for proc in procs:
                _close(proc)
    for round_index, rows in enumerate(rounds):
        for job, (seconds, error, result, digest) in zip(jobs, rows):
            job.samples.append(seconds)
            if round_index == 0:
                job.result, job.error, job.digest = result, error, digest
                if result is not None:
                    job.target = result.target
            elif job.error is None and digest != job.digest:
                job.error = f"output of round {round_index + 1} differs from round 1"
    for job in jobs:
        job.seconds = min(job.samples)
    return setup, statistics.median(peaks)


def calibrated_twin(target):
    """``target`` itself when calibrated, else the seeded ``xy-line-cal`` preset of its size."""
    from repro.target.target import resolve_target

    if getattr(target, "calibration", None) is not None:
        return target
    twin = resolve_target("xy-line-cal", num_qubits=target.num_qubits)
    if sorted(twin.coupling_map.edges) != sorted(target.coupling_map.edges):
        raise ValueError(f"no calibrated twin for {target.name}")
    return twin


def quality(checked: List[Checked]) -> Dict[str, float]:
    """Output-quality totals over the outputs that compiled.

    An output that fails drops out of these totals, so they read better;
    such a run reports ``correct: false`` and ``compare.py`` refuses it.

    ``est_fidelity`` is the estimated success probability on the calibrated
    device (or its calibrated twin) per input multi-qubit gate,
    ``exp(sum log F / sum input 2Q gates)``: a whole-program fidelity of a
    3000-gate program moves by tens of percent between seeds, while this
    normalised form still falls when outputs grow or land on worse edges.
    """
    facts = [c.facts for c in checked if c.facts is not None]
    totals = {key: sum(f[key] for f in facts) for key in facts[0]}
    return {
        "pulse_duration": totals["pulse_duration"],
        "num_2q": float(totals["num_2q"]),
        "depth_2q": float(totals["depth_2q"]),
        "distinct_2q": float(totals["distinct_2q"]),
        "est_fidelity": math.exp(totals["log_fidelity"] / totals["input_2q"]),
    }


def duration_reduction(pairs: List[Tuple[Checked, Checked]]) -> float:
    """Geomean of CNOT-baseline duration over ReQISC duration, per pair that compiled."""
    return geomean(
        [
            base.facts["pulse_duration"] / ours.facts["pulse_duration"]
            for base, ours in pairs
            if base.facts and ours.facts
        ]
    )


def timing_metrics(jobs: List[Job]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Compile-time metrics of a closed loop of in-process ``compile()`` calls.

    There is no daemon here: one caller compiles back to back, so each
    request's latency is its compile time, the low and high rows read the
    same loop, and capacity is the loop's completion rate.
    """
    seconds = [job.seconds for job in jobs]
    busy = sum(seconds)
    tail_s, tail_pct = tail(seconds)
    p99_s, p99_pct = p99(seconds)
    metrics = {
        "compile_s.p50": statistics.median(seconds),
        "compile_s.tail": tail_s,
        "gates_per_s": sum(len(job.circuit.instructions) for job in jobs) / busy,
        "latency_p50_ms.low": 1000.0 * statistics.median(seconds),
        "latency_p99_ms.low": 1000.0 * p99_s,
        "latency_p99_ms.high": 1000.0 * p99_s,
        "capacity_jobs_s": len(jobs) / busy,
    }
    details = {
        "samples": len(seconds),
        "tail_percentile": round(tail_pct, 1),
        "p99_percentile": round(p99_pct, 1),
        "compile_busy_s": busy,
    }
    return metrics, details


def warm_up(targets, specs) -> None:
    """One small compile per (target kind, pipeline): lazy imports and kernels load here."""
    circuit = P.dense(P.rng_for(0, "warm-up"), 4, 40)
    for target in targets:
        for spec in specs:
            run_job(Job(circuit, target, spec))


def finish(metrics, details, outcomes: List[Checked]) -> Outcome:
    """The outcome of checked outputs; each failed output and mismatched answer is one failure."""
    failures = [c.failure for c in outcomes if c.failure is not None]
    mismatched = sum(c.mismatched for c in outcomes)
    if mismatched:
        failures.append(f"{mismatched} daemon answers differ from the checked compile")
    details["max_infidelity"] = max((c.infidelity or 0.0 for c in outcomes), default=0.0)
    details["failures"] = failures[:5]
    failed = sum(1 for c in outcomes if c.failure is not None) + mismatched
    return Outcome(metrics, attempted=len(outcomes), failed=failed, details=details)


# ---------------------------------------------------------------------------
# paper-compare
# ---------------------------------------------------------------------------


def paper_compare_programs(seed: int, scale: int) -> List[Any]:
    """The suite categories plus dense programs of 8-14 qubits.

    A few compiles are far slower than the rest for reasons that hinge on
    the exact gates (the CNOT baseline's numerical fits, noise-aware routing
    giving up at SABRE's step limit), so the programs that pay them are the
    same on every seed: the suite categories, as in the paper's benchmark
    suite, are fixed programs (generated from seed 0), as are the 12- to
    14-qubit dense programs, whose noise-aware routing hits the step limit.
    The 8- and 10-qubit dense programs carry the workload seed.  The tail
    is the 11th-slowest of the 117 compiles; it falls among the fixed dense
    programs' CNOT-baseline compiles (0.15-0.3 s each), so a seeded compile
    that lands above them moves it little.  The Cuccaro adder is left out:
    its one hierarchical synthesis takes ~10 s, as long as the rest of a
    round, and one compile that long cannot be timed steadily (``NOTES.md``
    gives its numbers).
    """
    out: List[Any] = []
    for unit in range(scale):
        r = lambda label: P.rng_for(0, "paper", label)  # noqa: E731
        out += [
            P.qft(5),
            P.grover(r("grover"), 4),
            P.qaoa(r("qaoa"), 6),
            P.trotter(r("trotter"), 6),
            P.toffoli_chain(r("tof"), 6),
            P.uccsd(r("uccsd"), 6),
            P.reversible(r("reversible"), 6, 20),
        ]
        out += [
            P.dense(P.rng_for(seed, "paper", f"dense{n}", unit), n, gates)
            for n, gates in ((8, 120), (10, 110))
        ]
        out += [P.dense(r(label), n, 100) for label, n in FIXED_DENSE]
    return out


def paper_compare(seed: int, scale: int, tracer=None) -> Outcome:
    from repro.target.target import resolve_target

    programs = paper_compare_programs(seed, scale)
    # Each program sees its nine compiles in the same order, sharing one
    # synthesis cache (as when one program is compared across devices and
    # pipelines), but the programs take turns, so the compiles that set the
    # median and the tail sample the whole round, not one stretch of it.
    keys = [
        (index, preset, spec)
        for preset in PAPER_PRESETS
        for spec in PAPER_PIPELINES
        for index in range(len(programs))
    ]
    jobs: Dict[Tuple[int, str, str], Job] = {
        key: Job(programs[key[0]], (key[1], programs[key[0]].num_qubits), key[2]) for key in keys
    }
    ordered = list(jobs.values())
    groups = [key[0] for key in keys]

    if tracer is None:
        setup, peak = compile_rounds(ordered, groups, PAPER_PRESETS, PAPER_PIPELINES)
    else:
        # One in-process pass, so the wrappers see every compile.
        from repro.service.cache import SynthesisCache

        for job in ordered:
            job.target = resolve_target(job.target[0], num_qubits=job.target[1])
        size = programs[0].num_qubits
        warm_up([resolve_target(p, num_qubits=size) for p in PAPER_PRESETS], PAPER_PIPELINES)
        caches = [SynthesisCache(capacity=None) for _ in programs]
        with recording(tracer):
            for job, group in zip(ordered, groups):
                job.cache = caches[group]
                run_job(job)
                job.cache = None
        setup, peak = [], peak_rss_mb()

    outcomes = dict(zip(jobs, check_all(ordered)))
    metrics, details = timing_metrics(ordered)
    metrics.update(quality([c for key, c in outcomes.items() if key[2] == "reqisc-full"]))
    metrics["est_fidelity"] = quality(
        [c for key, c in outcomes.items() if key[2] == "reqisc-noise"]
    )["est_fidelity"]
    metrics["duration_reduction"] = duration_reduction(
        [
            (c, outcomes[(key[0], key[1], "reqisc-full")])
            for key, c in outcomes.items()
            if key[2] == "qiskit-like"
        ]
    )
    metrics["peak_rss_mb"] = peak
    for spec in PAPER_PIPELINES:
        worst = [c.infidelity or 0.0 for key, c in outcomes.items() if key[2] == spec]
        details[f"max_infidelity.{spec}"] = max(worst, default=0.0)
    details["setup_samples"] = setup
    details["rounds"] = len(ordered[0].samples) or 1
    outcome = finish(metrics, details, list(outcomes.values()))
    # Replayed: the dense programs that carry the workload seed, each as
    # its nine compiles sharing one cache.
    outcome.replays = [
        replay([jobs[key] for key in jobs if key[0] == index], shared_cache=True)
        for index, circuit in enumerate(programs)
        if circuit.name.startswith("dense") and circuit.num_qubits < 12
    ]
    return outcome
