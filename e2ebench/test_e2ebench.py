"""Tests of the benchmark's own machinery: the semantic checker and the inputs.

Run with ``python -m pytest e2ebench`` (``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from e2ebench import programs as P
from e2ebench import workloads as W
from e2ebench.check import CheckError, can_matrix, check_compiled, cx_matrix, u3_matrix
from e2ebench.serve_mix import RequestStream
from repro import QuantumCircuit, compile
from repro.gates import standard


def _edges(result):
    return {tuple(edge) for edge in result.target.coupling_map.edges}


def _rebuilt(result, instructions):
    circuit = QuantumCircuit(result.circuit.num_qubits, result.circuit.name)
    for inst in instructions:
        circuit.append(inst.gate, inst.qubits)
    return circuit


@pytest.fixture(scope="module")
def dense_result():
    circuit = P.dense(P.rng_for(3, "test"), 5, 60)
    return circuit, compile(circuit, target="xy-line", spec="reqisc-eff")


def test_isa_matrices_match_the_gate_library():
    rng = np.random.default_rng(0)
    for _ in range(5):
        theta, phi, lam = rng.uniform(-math.pi, math.pi, size=3)
        assert np.allclose(u3_matrix(theta, phi, lam), standard.u3_gate(theta, phi, lam).matrix)
        x, y, z = rng.uniform(-1.0, 1.0, size=3)
        assert np.allclose(can_matrix(x, y, z), standard.can_gate(x, y, z).matrix)
    assert np.allclose(cx_matrix(), standard.cx_gate().matrix)


def test_checker_accepts_a_correct_compile(dense_result):
    circuit, result = dense_result
    assert check_compiled(circuit, result.circuit, result.properties, _edges(result)) < 1e-10


def test_checker_rejects_a_dropped_gate(dense_result):
    circuit, result = dense_result
    instructions = list(result.circuit.instructions)
    drop = next(i for i, inst in enumerate(instructions) if inst.gate.name == "can")
    broken = _rebuilt(result, instructions[:drop] + instructions[drop + 1:])
    with pytest.raises(CheckError):
        check_compiled(circuit, broken, result.properties, _edges(result))


def test_checker_rejects_a_wrong_layout(dense_result):
    circuit, result = dense_result
    properties = dict(result.properties)
    final = list(properties["final_layout"])
    final[0], final[1] = final[1], final[0]
    properties["final_layout"] = final
    with pytest.raises(CheckError):
        check_compiled(circuit, result.circuit, properties, _edges(result))


def test_checker_rejects_an_uncoupled_gate(dense_result):
    circuit, result = dense_result
    with pytest.raises(CheckError):
        check_compiled(circuit, result.circuit, result.properties, coupling_edges=set())


def test_checker_accepts_grover_on_clean_ancillas():
    circuit = P.grover(P.rng_for(1, "test-grover"), 5)
    assert circuit.num_qubits > len({q for inst in circuit.instructions for q in inst.qubits})
    for spec in ("reqisc-eff", "qiskit-like"):
        result = compile(circuit, target="xy-line", spec=spec)
        check_compiled(circuit, result.circuit, result.properties, _edges(result))


def test_checker_rejects_a_dirty_ancilla():
    circuit = P.grover(P.rng_for(1, "test-grover"), 5)
    result = compile(circuit, target="xy-line", spec="reqisc-eff")
    final = result.properties["final_layout"]
    ancilla = final[result.properties["mirror_permutation"][circuit.num_qubits - 1]]
    dirty = _rebuilt(result, result.circuit.instructions)
    dirty.u3(math.pi, 0.0, math.pi, ancilla)  # leaves the ancilla in |1>
    with pytest.raises(CheckError):
        check_compiled(circuit, dirty, result.properties, _edges(result))


def test_checker_factors_spare_wires_of_a_large_device():
    circuit = P.dense(P.rng_for(4, "test-hex"), 8, 120)
    result = compile(circuit, target="heavy-hex-cal", spec="reqisc-noise")
    assert result.circuit.num_qubits > circuit.num_qubits
    assert check_compiled(circuit, result.circuit, result.properties, _edges(result)) < 1e-10


def _qasm(circuits):
    return [c.to_qasm() for c in circuits]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    paper = _qasm(W.paper_compare_programs(1, 1))
    assert paper == _qasm(W.paper_compare_programs(1, 1))
    assert paper != _qasm(W.paper_compare_programs(2, 1))

    def stream(seed):
        requests = RequestStream(seed)
        return [(r.kind, r.session, r.qasm) for r in (requests.next() for _ in range(40))]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    assert {kind for kind, _, _ in stream(1)} == {"fresh", "repeat", "session"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))
    value, percentile = W.tail(values)
    assert value == 30 and percentile == 75.0
    assert sum(1 for v in values if v > value) == 10


def test_rounds_keep_each_jobs_fastest_compile_and_the_first_output():
    circuit = P.dense(P.rng_for(4, "test-rounds"), 4, 30)
    jobs = [W.Job(circuit, ("xy-line", 4), spec) for spec in ("reqisc-eff", "qiskit-like")]
    setup, peak = W.compile_rounds(jobs, [0, 0], ("xy-line",), ("reqisc-eff", "qiskit-like"))
    assert len(setup) == W.ROUNDS and peak > 0
    for job in jobs:
        assert job.error is None and job.result is not None
        assert len(job.samples) == W.ROUNDS and job.seconds == min(job.samples)
        assert job.target.name == job.result.target.name
    assert W._check_one(jobs[0]).failure is None


def test_each_mismatched_daemon_answer_is_one_failure(dense_result):
    circuit, result = dense_result
    from repro.qasm import dumps

    good = dumps(result.circuit)
    job = W.Job(circuit, result.target, "reqisc-eff", answers=[good, good + "\n", good, "x"])
    job.result = result
    checked = W._check_one(job)
    assert checked.failure is None and checked.mismatched == 2
    outcome = W.finish({}, {}, [checked, W.Checked(infidelity=0.0)])
    assert outcome.attempted == 2 and outcome.failed == 2


def _save_run(directory, name, failed):
    env = {"kernels_backend": "py", "python": "3", "numpy": "2", "host": "h", "cpus": 2}
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"ok_share": {"value": 1.0 - failed / 10, "unit": "ratio"}},
    }
    lines = [{"environment": env}, {"details": {"workload": "w/trace0"}}, result]
    (directory / name).write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_compare_refuses_or_flags_runs_with_failed_outputs(tmp_path):
    from e2ebench import compare

    clean, broken = tmp_path / "clean", tmp_path / "broken"
    clean.mkdir()
    broken.mkdir()
    _save_run(clean, "a", 0)
    _save_run(broken, "a", 0)
    _save_run(broken, "b", 1)
    assert compare.main([str(clean), str(clean)]) == 0
    assert compare.main([str(clean), str(broken)]) == 1
    assert compare.main([str(broken), str(clean)]) == 2


def test_bare_takes_every_wrapper_out_and_puts_it_back():
    import repro.linalg.predicates as predicates
    from repro.compiler.passes import peephole
    from e2ebench.trace import Tracer, install

    originals = (predicates.allclose_up_to_global_phase, peephole.allclose_up_to_global_phase)
    tracer = Tracer()
    install(tracer)
    try:
        wrapped = (predicates.allclose_up_to_global_phase, peephole.allclose_up_to_global_phase)
        assert wrapped[0] is not originals[0] and wrapped[1] is wrapped[0]
        with tracer.bare():
            now = (predicates.allclose_up_to_global_phase, peephole.allclose_up_to_global_phase)
            assert now == originals
        assert (predicates.allclose_up_to_global_phase, peephole.allclose_up_to_global_phase) == wrapped
    finally:
        # Uninstall: forgetting the patches inside ``bare`` leaves the originals.
        with tracer.bare():
            tracer._patches.clear()
