"""Independent semantic check: is a compiled program the input program?

The check uses its own small numpy statevector simulator and writes the
output ISA matrices out from their definitions, so a wrong matrix builder
inside the compiler cannot hide a wrong compile:

* ``u3(theta, phi, lam)``: the standard single-qubit rotation,
* ``cx``: CNOT with the control on the gate's first qubit,
* ``can(x, y, z) = exp(-i (x XX + y YY + z ZZ))``.

Qubit 0 is the most significant bit.  The input program keeps the meaning
its author gave it, so input gates are simulated with their own matrices.

Input and output are compared up to global phase on one random state:

* wires that some input gate touches ("data" wires) start in a random joint
  state; wires that no input gate touches are clean ancillas and start in
  |0>.  (MCX expansion borrows them and relies on their being clean.)
* logical qubit ``q`` starts on physical ``initial_layout[q]`` and ends on
  physical ``final_layout[mirror_permutation[q]]``.
* every physical wire that does not end holding a data qubit must end in
  |0>.
* only the active physical wires are simulated: a wire joins the state
  when a gate first needs it, and leaves it while it is in a product state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "INFIDELITY_BOUND",
    "CheckError",
    "can_matrix",
    "check_compiled",
    "cx_matrix",
    "u3_matrix",
]

#: Largest accepted ``1 - F``.  Measured on this benchmark's programs: the
#: SU(4) pipelines sit at <= 2e-12 and the CNOT baseline reaches ~3e-8 on QFT
#: from its numerical 3-CNOT fit; a dropped or misplaced gate gives 1e-2 or
#: more.  1e-6 keeps a 30x margin over the worst measured output.
INFIDELITY_BOUND = 1e-6
#: Seed of the random input state, the same for every check.
_STATE_SEED = 0

_I2 = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class CheckError(AssertionError):
    """The compiled program is not the input program."""


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """``U3(theta, phi, lam)``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def cx_matrix() -> np.ndarray:
    """CNOT, control on the first (most significant) qubit."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def can_matrix(x: float, y: float, z: float) -> np.ndarray:
    """``exp(-i (x XX + y YY + z ZZ))``; the three terms commute."""
    out = np.eye(4, dtype=complex)
    for angle, pauli in ((x, _PAULI_X), (y, _PAULI_Y), (z, _PAULI_Z)):
        pp = np.kron(pauli, pauli)
        out = out @ (math.cos(angle) * np.eye(4) - 1j * math.sin(angle) * pp)
    return out


def _isa_matrix(gate) -> np.ndarray:
    if gate.name == "u3":
        return u3_matrix(*gate.params)
    if gate.name == "cx":
        return cx_matrix()
    if gate.name == "can":
        return can_matrix(*gate.params)
    raise CheckError(f"output gate {gate.name!r} is not in the u3/cx/can ISA")


class _Simulator:
    """Statevector over the wires currently in play, one axis per wire.

    Single-qubit gates are held per wire and folded into the next multi-qubit
    gate on that wire, so a run of u3s costs one 4x4 product, not one pass
    over the state each.  A wire joins the state, in |0>, when a gate first
    needs it.  Once more than ``len(wires) + 2`` wires are in play, wires
    found in a product state are factored out and kept as one 2-vector each
    until a gate needs them again: routing on a device larger than the
    program passes qubits through spare wires, and without the factoring
    the state would grow with the device instead of the program.
    """

    #: A wire whose reduced state has a smaller eigenvalue below this is a
    #: product state up to rounding; factoring it out moves ``1 - F`` by at
    #: most about ``2 * sqrt(eigenvalue)`` = 2e-10.
    PRODUCT_TOLERANCE = 1e-20
    #: Largest state simulated (2**24 amplitudes, 256 MiB); beyond it the
    #: output is reported as unchecked rather than risking the machine.
    MAX_WIRES = 24

    def __init__(self, state: np.ndarray, wires: Sequence[int]) -> None:
        self.psi = state.reshape((2,) * len(wires))
        self.axis: Dict[int, int] = {w: i for i, w in enumerate(wires)}
        self.cap = len(wires) + 2
        self.pending: Dict[int, np.ndarray] = {}
        self.factored: Dict[int, np.ndarray] = {}

    def apply(self, matrix: np.ndarray, wires: Sequence[int]) -> None:
        if len(wires) == 1:
            wire = wires[0]
            if wire in self.factored:
                self.factored[wire] = matrix @ self.factored[wire]
            else:
                self.pending[wire] = matrix @ self.pending.get(wire, _I2)
            return
        for wire in wires:
            self._ensure(wire, protect=wires)
        local = None
        for wire in wires:
            one = self.pending.pop(wire, _I2)
            local = one if local is None else np.kron(local, one)
        self._contract(matrix @ local, wires)

    def _contract(self, matrix: np.ndarray, wires: Sequence[int]) -> None:
        k = len(wires)
        axes = [self.axis[w] for w in wires]
        op = matrix.reshape((2,) * (2 * k))
        out = np.tensordot(op, self.psi, axes=(list(range(k, 2 * k)), axes))
        self.psi = np.moveaxis(out, list(range(k)), axes)

    def _ensure(self, wire: int, protect: Sequence[int] = ()) -> None:
        if wire in self.axis:
            return
        if len(self.axis) >= self.cap and not self._factor_product_wires(protect):
            self.cap += 1
            if self.cap > self.MAX_WIRES:
                raise CheckError(f"more than {self.MAX_WIRES} entangled wires to simulate")
        zero = np.array([1.0, 0.0], dtype=complex)
        self.psi = np.multiply.outer(self.psi, self.factored.pop(wire, zero))
        self.axis[wire] = self.psi.ndim - 1

    def _factor_product_wires(self, protect: Sequence[int]) -> bool:
        factored = False
        for wire, axis in sorted(self.axis.items(), key=lambda item: -item[1]):
            if wire in self.pending or wire in protect:
                continue
            half0 = self.psi.take(0, axis=axis)
            half1 = self.psi.take(1, axis=axis)
            rho = np.array(
                [[np.vdot(half0, half0), np.vdot(half1, half0)],
                 [np.vdot(half0, half1), np.vdot(half1, half1)]]
            )
            values, vectors = np.linalg.eigh(rho)
            if values[0] > self.PRODUCT_TOLERANCE:
                continue
            phi = vectors[:, 1]
            self.psi = np.conj(phi[0]) * half0 + np.conj(phi[1]) * half1
            self.factored[wire] = phi
            del self.axis[wire]
            for other, index in self.axis.items():
                if index > axis:
                    self.axis[other] = index - 1
            factored = True
        return factored

    def state(self, wires: Sequence[int]) -> np.ndarray:
        """Amplitudes over ``wires`` (first is most significant), every other wire in |0>."""
        for wire in sorted(self.pending):
            self._ensure(wire, protect=(wire,))
            self._contract(self.pending.pop(wire), (wire,))
        for wire in wires:
            self._ensure(wire, protect=wires)
        spare = [w for w in self.axis if w not in wires]
        order = [self.axis[w] for w in list(wires) + spare]
        amplitudes = np.transpose(self.psi, order).reshape(2 ** len(wires), -1)[:, 0]
        for phi in self.factored.values():
            amplitudes = amplitudes * phi[0]
        return amplitudes


def _layout(properties: Mapping, key: str, size: int) -> List[int]:
    value = properties.get(key)
    return list(range(size)) if value is None else [int(q) for q in value]


def check_compiled(
    source,
    compiled,
    properties: Mapping,
    coupling_edges: Optional[set] = None,
) -> float:
    """Return ``1 - F`` of ``compiled`` against ``source``; raise above :data:`INFIDELITY_BOUND`.

    ``properties`` carries the compile's ``initial_layout``,
    ``final_layout`` and ``mirror_permutation`` (absent means identity).
    ``coupling_edges``, when given, is the set of coupled physical pairs;
    every two-qubit output gate must act on one of them.
    """
    num_logical = source.num_qubits
    data = sorted({q for inst in source.instructions for q in inst.qubits})

    rng = np.random.default_rng(_STATE_SEED)
    vec = rng.normal(size=2 ** len(data)) + 1j * rng.normal(size=2 ** len(data))
    vec /= np.linalg.norm(vec)

    sim = _Simulator(vec, data)
    for inst in source.instructions:
        sim.apply(np.asarray(inst.gate.matrix), inst.qubits)
    expected = sim.state(data)

    initial = _layout(properties, "initial_layout", num_logical)
    final = _layout(properties, "final_layout", num_logical)
    mirror = _layout(properties, "mirror_permutation", num_logical)

    sim = _Simulator(vec, [initial[q] for q in data])
    for inst in compiled.instructions:
        if len(inst.qubits) == 2 and coupling_edges is not None:
            a, b = inst.qubits
            if (a, b) not in coupling_edges and (b, a) not in coupling_edges:
                raise CheckError(f"2Q gate on uncoupled physical pair {inst.qubits}")
        sim.apply(_isa_matrix(inst.gate), inst.qubits)
    actual = sim.state([final[mirror[q]] for q in data])

    infidelity = max(0.0, 1.0 - abs(np.vdot(expected, actual)) ** 2)
    if not infidelity <= INFIDELITY_BOUND:
        raise CheckError(f"1-F = {infidelity:.3e} exceeds {INFIDELITY_BOUND:.0e}")
    return infidelity
