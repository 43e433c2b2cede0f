"""``serve-mix``: an open loop against a live ``repro serve`` daemon.

One process drives the daemon over at most ``nproc`` connections.  A
scheduler thread puts each request on a shared queue when it is due; sender
threads, one per connection, take them in order.  Latency runs from when a
request was due to when its answer arrived, so waiting for a free
connection counts as queueing.

Requests are ``reqisc-eff`` compiles for a sized ``xy-line`` of small and
medium programs, in three classes:

* fresh programs (70%: small dense, medium dense and small QAOA and
  Trotter programs), which compile and write to the daemon's cache,
* exact repeats of a recent request (15%), answered by the dedup layers,
* edits to one of four ``session`` programs (15%), which replay the memo.

Phases run at fixed offered rates: a low rate and a high rate, replayed on
fresh daemons (see :func:`run`), then on the last daemon a ladder of
higher rates, each step run only while the previous ones met the latency
limit, and one bisection step between the last rate that met it and the
first that did not.  Between phases the queue drains.

Responses carry no layout, so every returned program is compared byte for
byte with an in-process compile of the same request, and that compile is
semantically checked.
"""

from __future__ import annotations

import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from e2ebench import programs as P
from e2ebench import workloads as W
from e2ebench.trace import recording

#: Limit on the tail latency (ms) that a rate must meet to count as held.
LATENCY_LIMIT_MS = 300.0
#: The fixed low and high offered rates (jobs/s), about a third and a half
#: of the capacity (17-24 jobs/s) measured on a 2-core host.  Nearer
#: capacity, queueing turns small differences between seeds' programs into
#: large tail swings.
LOW_RATE, HIGH_RATE = 7.0, 10.0
PHASE_REQUESTS = 40
#: Capacity ladder: rates 12% apart from 19 jobs/s, each offered for
#: ``STEP_SECONDS``.  A step must last long enough for a rate above
#: capacity to build a backlog that breaks the limit: a step of one second
#: lets rates up to ~1.3x capacity pass, one of 2.5 s up to ~1.1x.
LADDER = tuple(round(19.0 * 1.12**k, 1) for k in range(12))
STEP_SECONDS = 2.5
BISECTIONS = 1
SESSIONS = 4
#: Fresh daemons an untraced run offers the low- and high-rate phases to.
ROUNDS = 3


@dataclass
class Request:
    qasm: str
    circuit: Any
    kind: str
    session: Optional[str] = None
    due: float = 0.0
    queued: float = 0.0
    done: float = 0.0
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


#: One cycle of request kinds.  The cycle fixes each phase's mix, so the
#: seed changes programs, not how many of each kind a phase holds: 5 small
#: fresh programs (5 qubits, 60 gates), 4 medium ones (8 qubits, 160 gates),
#: 5 structured ones (6-qubit QAOA or Trotter), 3 exact repeats and 3
#: session requests.
CYCLE = (
    "small", "medium", "structured", "repeat", "small", "session", "structured",
    "medium", "small", "repeat", "structured", "session", "medium", "small",
    "repeat", "structured", "session", "medium", "small", "structured",
)


class RequestStream:
    """The seeded request sequence: fresh programs, repeats and session edits."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.count = 0
        self.edits = 0
        self.recent: List[Tuple[str, Any]] = []
        self.sessions: Dict[int, Any] = {}

    def _fresh_program(self, kind: str):
        """A fresh program of the kind's fixed size.

        Medium programs, the ones the others queue behind, come from seed 0,
        as do the sessions' first versions: the tail latencies then do not
        hinge on the seed.  Small and structured programs carry it.
        """
        rng = P.rng_for(0 if kind == "medium" else self.seed, "serve-fresh", self.count)
        if kind == "small":
            return P.dense(rng, 5, 60)
        if kind == "medium":
            return P.dense(rng, 8, 160)
        return (P.qaoa, P.trotter)[self.count % 2](rng, 6)

    def _edit(self, index: int):
        """The session's next version: one u3 of the previous one re-angled."""
        previous = self.sessions.get(index)
        if previous is None:
            circuit = P.dense(P.rng_for(0, "serve-session", index), 8, 160)
        else:
            from repro import QuantumCircuit

            rng = P.rng_for(self.seed, "serve-session", index, self.count)
            circuit = QuantumCircuit(previous.num_qubits, previous.name)
            slots = [i for i, inst in enumerate(previous.instructions) if inst.gate.name == "u3"]
            pick = slots[int(rng.integers(len(slots)))]
            for i, inst in enumerate(previous.instructions):
                if i == pick:
                    theta, phi, lam = (float(v) for v in rng.uniform(0.0, 2.0 * math.pi, size=3))
                    circuit.u3(theta, phi, lam, inst.qubits[0])
                else:
                    circuit.append(inst.gate, inst.qubits)
        self.sessions[index] = circuit
        return circuit

    def next(self) -> Request:
        from repro.qasm import dumps

        kind = CYCLE[self.count % len(CYCLE)]
        rng = P.rng_for(self.seed, "serve-pick", self.count)
        self.count += 1
        if kind == "repeat":
            qasm, circuit = self.recent[int(rng.integers(len(self.recent)))]
            return Request(qasm, circuit, "repeat")
        if kind == "session":
            # Sessions take turns, so every phase holds the same share of
            # first versions (full compiles) and edits (memo replays).
            index = self.edits % SESSIONS
            self.edits += 1
            circuit = self._edit(index)
            return Request(dumps(circuit), circuit, "session", session=f"s{index}")
        circuit = self._fresh_program(kind)
        qasm = dumps(circuit)
        self.recent = (self.recent + [(qasm, circuit)])[-10:]
        return Request(qasm, circuit, "fresh")


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess on a Unix socket under the build directory."""

    def __init__(self, lib: str, root: str, build_dir: str) -> None:
        self.workdir = os.path.join(build_dir, "serve")
        # Relative to the checkout root (the cwd of both ends): Unix socket
        # paths are limited to ~100 bytes and the checkout path may be long.
        self.address = os.path.relpath(os.path.join(self.workdir, "d.sock"), root)
        self.env = dict(os.environ, PYTHONPATH=lib)
        self.root = root
        self.proc: Optional[subprocess.Popen] = None

    def boot(self) -> float:
        """Start a fresh daemon with an empty cache; return seconds until it has compiled.

        Ready means a first small compile answered: the workers import the
        compiler lazily, and that cost is part of bringing a daemon up.
        """
        from repro.qasm import dumps
        from repro.service.server import ServeClient

        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--address", self.address,
                "--workers", str(min(2, os.cpu_count() or 1)),
                "--max-pending", "256",
                "--job-timeout", "120",
                "--cache-dir", os.path.join(os.path.relpath(self.workdir, self.root), "cache"),
            ],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # Its own process group, so stop() can end its workers too.
            start_new_session=True,
        )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                with ServeClient(self.address, timeout=60.0, connect_timeout=1.0) as client:
                    if client.ping():
                        first = dumps(P.qft(3))
                        client.compile(first, compiler="reqisc-eff", seed=0, target="xy-line")
                        return time.perf_counter() - start
            except OSError:
                pass  # not listening yet
            if time.perf_counter() - start > 60.0:
                raise RuntimeError("repro serve did not answer within 60 s")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its workers."""
        pids = [self.proc.pid]
        try:
            with open(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
        total_kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """Shut the daemon down, then end whatever is left of its process group."""
        from repro.service.server import ServeClient

        if self.proc is None:
            return
        try:
            with ServeClient(self.address, timeout=10.0) as client:
                client.shutdown_server()
        except Exception:  # noqa: BLE001 - fall through to terminate
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        group = self.proc.pid
        self.proc = None
        deadline = time.perf_counter() + 10.0
        try:
            os.killpg(group, signal.SIGKILL)
            while time.perf_counter() < deadline:
                os.killpg(group, 0)
                time.sleep(0.02)
        except ProcessLookupError:
            pass  # the whole group has ended


# ---------------------------------------------------------------------------
# The open loop
# ---------------------------------------------------------------------------


def run_phase(address: str, requests: List[Request], rate: float, connections: int) -> None:
    """Offer ``requests`` at ``rate`` per second and wait for every answer."""
    from repro.service.server import ServeClient

    pending: "queue.Queue[Optional[Request]]" = queue.Queue()

    def sender() -> None:
        with ServeClient(address, timeout=300.0) as client:
            while True:
                request = pending.get()
                if request is None:
                    return
                try:
                    request.response = client.compile(
                        request.qasm, compiler="reqisc-eff", seed=0, target="xy-line",
                        session=request.session,
                    )
                except Exception as exc:  # noqa: BLE001 - a refused or failed request
                    request.error = f"{type(exc).__name__}: {exc}"
                request.done = time.perf_counter()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    epoch = time.perf_counter() + 0.02
    for index, request in enumerate(requests):
        request.due = epoch + index / rate
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        request.queued = time.perf_counter()
        pending.put(request)
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join()


def held(requests: List[Request], rate: float) -> Tuple[bool, float]:
    """Whether a phase met the latency limit without a growing backlog; its tail latency.

    A failed request counts as missing the limit.  The backlog grows when
    more requests are still unanswered at the end of the offered window
    than the rate can clear within the limit.
    """
    tail_ms = W.tail([r.latency_ms if r.error is None else math.inf for r in requests])[0]
    window_end = requests[-1].due
    backlog = sum(1 for r in requests if r.done > window_end)
    return tail_ms <= LATENCY_LIMIT_MS and backlog <= rate * LATENCY_LIMIT_MS / 1000.0 + 2, tail_ms


def sweep(address: str, stream: RequestStream, connections: int, phases, log: List[Request]):
    """Capacity: the highest offered rate that holds the latency limit.

    ``phases`` are the ``(rate, requests)`` already run.  Rates above them
    are tried in ``LADDER`` order until one fails; then ``BISECTIONS`` steps
    narrow the bracket, and the limit crossing is placed inside it by the
    tail latencies on a log scale, so the estimate moves smoothly.
    Returns the estimate and one record per step.
    """
    steps = []

    def record(rate: float, requests: List[Request]) -> Tuple[bool, float]:
        ok, tail_ms = held(requests, rate)
        steps.append({"rate": rate, "held": ok, "tail_ms": tail_ms, "requests": len(requests)})
        return ok, tail_ms

    def step(rate: float) -> Tuple[bool, float]:
        requests = [stream.next() for _ in range(round(rate * STEP_SECONDS))]
        run_phase(address, requests, rate, connections)
        log.extend(requests)
        return record(rate, requests)

    passed, passed_tail = 0.0, None
    failed = failed_tail = None
    for rate, requests in phases:
        ok, tail_ms = record(rate, requests)
        if ok and failed is None:
            passed, passed_tail = rate, tail_ms
        elif not ok and failed is None:
            failed, failed_tail = rate, tail_ms
    for rate in LADDER:
        if failed is not None:
            break
        ok, tail_ms = step(rate)
        if ok:
            passed, passed_tail = rate, tail_ms
        else:
            failed, failed_tail = rate, tail_ms
    if failed is None:
        return passed, steps
    for _ in range(BISECTIONS):
        middle = (passed + failed) / 2.0
        ok, tail_ms = step(middle)
        if ok:
            passed, passed_tail = middle, tail_ms
        else:
            failed, failed_tail = middle, tail_ms
    if passed_tail and math.isfinite(failed_tail) and failed_tail > passed_tail:
        share = math.log(LATENCY_LIMIT_MS / passed_tail) / math.log(failed_tail / passed_tail)
        return passed + (failed - passed) * min(1.0, max(0.0, share)), steps
    return passed, steps


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def reference_jobs(requests: List[Request]) -> Dict[str, W.Job]:
    """One in-process compile per distinct request program, keyed by its QASM."""
    from repro.qasm import loads
    from repro.target.target import resolve_target

    jobs: Dict[str, W.Job] = {}
    for request in requests:
        if request.qasm not in jobs:
            circuit = loads(request.qasm)
            target = resolve_target("xy-line", num_qubits=max(2, circuit.num_qubits))
            jobs[request.qasm] = W.Job(circuit, target, "reqisc-eff")
    return jobs


def latency_or_inf(request: Request) -> float:
    return request.latency_ms if request.error is None else math.inf


def worker_seconds(request: Request) -> float:
    """The worker's compile seconds of a request it compiled, else infinity."""
    if request.error is None and request.response.get("cached") == "no":
        return request.response["compile_seconds"]
    return math.inf


def run(seed: int, scale: int, lib: str, root: str, build_dir: str, tracer=None) -> W.Outcome:
    """Offer the low and high phases to fresh daemons, then find capacity on the last one.

    An untraced run boots :data:`ROUNDS` daemons one after another, each
    with an empty cache, and offers each the same requests at the same
    times; the latency and compile-time metrics are read from the samples
    of all rounds.  Rounds far apart sample more of the host's speed swings
    than one long phase, and each boot is a set-up sample.  A traced run
    boots one daemon.
    """
    from repro.qasm import dumps
    from repro.service.server import ServeClient
    from repro.target.pipeline import cnot_baseline_pipeline

    connections = min(2, os.cpu_count() or 1)
    daemon = Daemon(lib, root, build_dir)
    setup: List[float] = []
    lows: List[List[Request]] = []
    highs: List[List[Request]] = []
    try:
        for index in range(1 if tracer is not None else ROUNDS):
            daemon.stop()
            setup.append(daemon.boot())
            # Workers import the compiler lazily: pay that before timing.
            warm = [Request(dumps(c), c, "warm-up") for c in (P.qft(3), P.qft(4))]
            run_phase(daemon.address, warm, 50.0, connections)
            stream = RequestStream(seed)
            lows.append([stream.next() for _ in range(PHASE_REQUESTS * scale)])
            highs.append([stream.next() for _ in range(PHASE_REQUESTS * scale)])
            run_phase(daemon.address, lows[-1], LOW_RATE, connections)
            run_phase(daemon.address, highs[-1], HIGH_RATE, connections)
        low, high = lows[-1], highs[-1]
        start = time.perf_counter()
        ladder: List[Request] = []
        capacity, steps = sweep(
            daemon.address, stream, connections, [(LOW_RATE, low), (HIGH_RATE, high)], ladder
        )
        ladder_wall = time.perf_counter() - start
        with ServeClient(daemon.address, timeout=30.0) as client:
            stats = client.stats()
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    low_all = [r for phase in lows for r in phase]
    high_all = [r for phase in highs for r in phase]
    sent = low_all + high_all + ladder
    # Byte check: every answer against an in-process compile of the same
    # request, which the pool then checks semantically.  A traced run
    # compiles them here instead, so their spans are recorded.
    references = reference_jobs(sent)
    errors = [f"{r.kind}: {r.error}" for r in sent if r.error is not None]
    for request in sent:
        if request.error is None:
            references[request.qasm].answers.append(request.response["qasm"])
    if tracer is not None:
        with recording(tracer):
            for job in references.values():
                W.run_job(job)

    # Quality over the low and high phases' distinct programs (the same
    # set on every run of a seed); the CNOT reference over the first 24.
    panel = list(reference_jobs(low + high))
    plain_cnot = cnot_baseline_pipeline(name="cnot-plain", consolidate=False)
    cnot_refs = [
        W.Job(references[q].circuit, references[q].target, plain_cnot) for q in panel[:24]
    ]
    checked = list(references.values()) + cnot_refs
    outcomes = W.check_all(checked)
    by_job = {id(job): outcome for job, outcome in zip(checked, outcomes)}

    # Every round's samples count: the rounds are one workload offered
    # three times, which triples the samples the tails are read from.
    compiled = [r for r in low_all + high_all if math.isfinite(worker_seconds(r))]
    worker_s = [worker_seconds(r) for r in compiled]
    low_ms = [latency_or_inf(r) for r in low_all]
    metrics: Dict[str, float] = {
        "compile_s.p50": statistics.median(worker_s),
        "compile_s.tail": W.tail(worker_s)[0],
        "gates_per_s": sum(len(r.circuit.instructions) for r in compiled) / sum(worker_s),
        "latency_p50_ms.low": statistics.median(low_ms),
        "latency_p99_ms.low": W.p99(low_ms)[0],
        "latency_p99_ms.high": W.p99([latency_or_inf(r) for r in high_all])[0],
        "capacity_jobs_s": capacity,
        "peak_rss_mb": peak,
    }
    metrics.update(W.quality([by_job[id(references[q])] for q in panel]))
    metrics["duration_reduction"] = W.duration_reduction(
        [(by_job[id(base)], by_job[id(references[q])]) for base, q in zip(cnot_refs, panel)]
    )

    server = stats.get("server", {})
    cache = stats.get("cache", {})
    received = server.get("received", 0) or 1
    overhead = [
        r.latency_ms - 1000.0 * worker_seconds(r) for r in sent if math.isfinite(worker_seconds(r))
    ]
    layer_counters = {
        "service.worker_compile_ms.p50": 1000.0 * statistics.median(worker_s),
        "service.worker_compile_ms.p99": 1000.0 * W.p99(worker_s)[0],
        "service.overhead_ms.p50": statistics.median(overhead),
        "service.overhead_ms.p99": W.p99(overhead)[0],
        "service.compiles_started": float(server.get("compiles_started", 0)),
        "service.dedup_share": (
            server.get("dedup_inflight", 0) + server.get("dedup_result_cache", 0)
        ) / received,
        "service.memo_region_hits": float(cache.get("memo_region_hits", 0)),
        "service.cache.hit_share": (
            cache.get("hits", 0) / (cache.get("hits", 0) + cache.get("misses", 0))
            if cache.get("hits", 0) + cache.get("misses", 0)
            else 0.0
        ),
        "service.refused": float(
            server.get("rejected_overload", 0) + server.get("rejected_invalid", 0)
        ),
        "service.generator_lag_ms.max": 1000.0 * max(r.queued - r.due for r in sent),
    }
    outcome = W.finish(metrics, {}, outcomes)
    outcome.replays = [W.replay([job]) for job in list(references.values())[::4]]
    outcome.attempted += len(sent)
    outcome.failed += len(errors)
    outcome.details.update(
        {
            "setup_samples": setup,
            "requests": len(sent),
            "rounds": len(lows),
            "fresh_compiles": len(worker_s),
            "low_samples": len(low_ms),
            "high_samples": len(high_all),
            "tail_percentile.low": round(W.p99(low_ms)[1], 1),
            "steps": steps,
            "ladder_wall_s": ladder_wall,
            "request_errors": errors[:5],
            "layer_counters": layer_counters,
        }
    )
    return outcome
