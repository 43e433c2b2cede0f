"""Seeded input programs, built with the public ``QuantumCircuit`` API only.

Every program is a pure function of its arguments, and every random choice
comes from a ``numpy.random.Generator`` seeded from the workload seed, so one
seed gives byte-identical inputs on any machine.  The package's own workload
generators are not used: they may change (the QAOA graphs come from
networkx), and the benchmark's inputs must not move with them.

Why each family is here:

* ``dense``: random CX/U3 programs.  No structure to exploit, so every gate
  goes through SU(4) fusion, mirroring, routing and finalization — the
  headline ``reqisc-eff`` path.
* ``qft``: long-range controlled phases; the routing-heavy textbook kernel,
  and the CNOT baseline's slowest program (its 3-CNOT fit runs per distinct
  phase).  It has no random part: its cost depends sharply on the routed
  block structure, and a seeded wire relabelling would turn that into
  seed-to-seed noise.
* ``qaoa``: ZZ rotations on a seeded random 3-regular graph; commuting,
  sparse 2Q structure.
* ``trotter``: a Heisenberg chain with seeded couplings; nearest-neighbour
  XX+YY+ZZ terms that fuse into one SU(4) each, the paper's best case.
* ``grover``: an MCX oracle and diffusion on clean ancillas; the case that
  needs the checker's clean-ancilla rule.
* ``toffoli_chain``, ``uccsd`` and ``reversible``: the remaining suite
  shapes (CCX ladders, Pauli-string exponentials, random reversible logic).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro import QuantumCircuit

__all__ = [
    "dense",
    "grover",
    "qaoa",
    "qft",
    "reversible",
    "rng_for",
    "toffoli_chain",
    "trotter",
    "uccsd",
]


def rng_for(seed: int, *labels: object) -> np.random.Generator:
    """A generator seeded from the workload seed and a program's labels."""
    text = "/".join(str(label) for label in labels)
    return np.random.default_rng([seed] + [ord(ch) for ch in text])


def dense(rng: np.random.Generator, num_qubits: int, num_gates: int) -> QuantumCircuit:
    """``num_gates`` gates in a seeded order, exactly half of them CX.

    A fixed CX count keeps the size of the work the same across seeds; only
    where the gates go changes.
    """
    circuit = QuantumCircuit(num_qubits, f"dense_{num_qubits}_{num_gates}")
    two_qubit = rng.permutation(num_gates) < num_gates // 2
    for is_cx in two_qubit:
        if is_cx:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            theta, phi, lam = rng.uniform(0.0, 2.0 * math.pi, size=3)
            circuit.u3(float(theta), float(phi), float(lam), int(rng.integers(num_qubits)))
    return circuit


def qft(num_qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, f"qft_{num_qubits}")
    for target in range(num_qubits):
        circuit.h(target)
        for control in range(target + 1, num_qubits):
            circuit.cp(math.pi / 2 ** (control - target), control, target)
    return circuit


def _regular_graph(rng: np.random.Generator, num_nodes: int, degree: int) -> List[tuple]:
    """A random simple ``degree``-regular graph by seeded stub matching."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(num_nodes), degree))
        edges = {tuple(sorted((int(a), int(b)))) for a, b in stubs.reshape(-1, 2)}
        if len(edges) * 2 == len(stubs) and all(a != b for a, b in edges):
            return sorted(edges)


def qaoa(rng: np.random.Generator, num_qubits: int, layers: int = 2) -> QuantumCircuit:
    edges = _regular_graph(rng, num_qubits, 3)
    circuit = QuantumCircuit(num_qubits, f"qaoa_{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for _ in range(layers):
        gamma, beta = rng.uniform(0.1, 1.0, size=2)
        for a, b in edges:
            circuit.rzz(2.0 * float(gamma), a, b)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * float(beta), qubit)
    return circuit


def trotter(rng: np.random.Generator, num_qubits: int, steps: int = 3) -> QuantumCircuit:
    couplings = rng.uniform(0.5, 1.5, size=(num_qubits - 1, 3))
    field = rng.uniform(0.2, 1.0, size=num_qubits)
    dt = 1.0 / steps
    circuit = QuantumCircuit(num_qubits, f"trotter_{num_qubits}")
    for _ in range(steps):
        for q in range(num_qubits - 1):
            jx, jy, jz = couplings[q]
            circuit.rxx(2.0 * dt * float(jx), q, q + 1)
            circuit.ryy(2.0 * dt * float(jy), q, q + 1)
            circuit.rzz(2.0 * dt * float(jz), q, q + 1)
        for q in range(num_qubits):
            circuit.rx(2.0 * dt * float(field[q]), q)
    return circuit


def grover(rng: np.random.Generator, num_data: int) -> QuantumCircuit:
    """One Grover iteration; the last ``num_data - 3`` wires are clean ancillas."""
    marked = int(rng.integers(1 << num_data))
    circuit = QuantumCircuit(num_data + max(0, num_data - 3), f"grover_{num_data}")
    data = list(range(num_data))
    flips = [q for q in data if not (marked >> (num_data - 1 - q)) & 1]

    def phase_flip_all_ones() -> None:
        circuit.h(data[-1])
        circuit.mcx(data[:-1], data[-1])
        circuit.h(data[-1])

    for q in data:
        circuit.h(q)
    for q in flips:
        circuit.x(q)
    phase_flip_all_ones()
    for q in flips:
        circuit.x(q)
    for q in data:
        circuit.h(q)
        circuit.x(q)
    phase_flip_all_ones()
    for q in data:
        circuit.x(q)
        circuit.h(q)
    return circuit


def toffoli_chain(rng: np.random.Generator, num_qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, f"tof_{num_qubits}")
    for q in range(num_qubits):
        if rng.random() < 0.5:
            circuit.h(q)
    for q in range(num_qubits - 2):
        circuit.ccx(q, q + 1, q + 2)
    for q in reversed(range(num_qubits - 2)):
        circuit.ccx(q, q + 1, q + 2)
    return circuit


def uccsd(rng: np.random.Generator, num_qubits: int, excitations: int = 3) -> QuantumCircuit:
    """Pauli-string exponentials ``exp(-i angle/2 P)`` over CX ladders."""
    circuit = QuantumCircuit(num_qubits, f"uccsd_{num_qubits}")
    for _ in range(excitations):
        qubits = sorted(int(q) for q in rng.choice(num_qubits, size=4, replace=False))
        paulis = [str(p) for p in rng.choice(["X", "Y"], size=4)]
        angle = float(rng.uniform(0.1, 1.0))
        for q, p in zip(qubits, paulis):
            if p == "Y":
                circuit.sdg(q)
            circuit.h(q)
        for x, y in zip(qubits, qubits[1:]):
            circuit.cx(x, y)
        circuit.rz(angle, qubits[-1])
        for x, y in reversed(list(zip(qubits, qubits[1:]))):
            circuit.cx(x, y)
        for q, p in zip(qubits, paulis):
            circuit.h(q)
            if p == "Y":
                circuit.s(q)
    return circuit


def reversible(rng: np.random.Generator, num_qubits: int, num_gates: int) -> QuantumCircuit:
    """Random X/CX/CCX logic on a superposed input."""
    circuit = QuantumCircuit(num_qubits, f"reversible_{num_qubits}")
    for q in range(num_qubits):
        circuit.h(q)
    for _ in range(num_gates):
        arity = int(rng.integers(1, 4))
        wires = [int(q) for q in rng.choice(num_qubits, size=arity, replace=False)]
        if arity == 1:
            circuit.x(*wires)
        elif arity == 2:
            circuit.cx(*wires)
        else:
            circuit.ccx(*wires)
    return circuit
