"""Ansatz base classes.

An :class:`Ansatz` owns a parameterized circuit, a canonical parameter
ordering, and a compiled gate plan for fast simulation. Subclasses define the
rotation layers; :class:`TwoLocalAnsatz` implements the rotation/entangle
block structure shared by SU2 and RA.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ansatz.entanglement import entanglement_pairs
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter, ParameterVector
from repro.compiler import GatePlan, compile_plan
from repro.utils.rng import SeedLike, ensure_rng


class Ansatz:
    """Base class: a parameterized circuit plus helpers for VQE."""

    def __init__(self, circuit: QuantumCircuit, parameters: Sequence[Parameter]):
        self._circuit = circuit
        self._parameters = tuple(parameters)
        # Compiled through the shared plan cache: structurally identical
        # ansatz instances (same shape, reps, entanglement) share one plan.
        self._plan = compile_plan(circuit, self._parameters)

    @property
    def num_qubits(self) -> int:
        return self._circuit.num_qubits

    @property
    def num_parameters(self) -> int:
        return len(self._parameters)

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        return self._parameters

    @property
    def circuit(self) -> QuantumCircuit:
        """The symbolic circuit (copy; callers may mutate freely)."""
        return self._circuit.copy()

    @property
    def plan(self) -> GatePlan:
        """The compiled (fused, cached) gate plan — the execution form."""
        return self._plan

    def bind(self, theta: Sequence[float]) -> QuantumCircuit:
        """A numeric circuit at parameter values ``theta``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {theta.shape}"
            )
        return self._circuit.bind(dict(zip(self._parameters, theta)))

    def initial_point(self, seed: SeedLike = None, scale: float = 0.1) -> np.ndarray:
        """A small random starting parameter vector.

        Small angles keep the initial state near ``|0...0>``, matching how
        the paper's VQE runs begin high on the objective and descend.
        """
        rng = ensure_rng(seed)
        return rng.uniform(-scale * np.pi, scale * np.pi, self.num_parameters)

    @property
    def num_two_qubit_gates(self) -> int:
        return self._circuit.num_two_qubit_gates

    def depth(self) -> int:
        return self._circuit.depth()


class TwoLocalAnsatz(Ansatz):
    """Alternating rotation and CX entanglement blocks.

    ``rotation_gates`` names the single-qubit rotations in each rotation
    layer (e.g. ``("ry",)`` for RealAmplitudes, ``("ry", "rz")`` for
    EfficientSU2). ``reps`` counts entanglement blocks; there are
    ``reps + 1`` rotation layers (final rotation layer included).
    """

    def __init__(
        self,
        num_qubits: int,
        rotation_gates: Sequence[str],
        reps: int = 2,
        entanglement: str = "linear",
        name: str = "two_local",
    ):
        if reps < 0:
            raise ValueError("reps must be >= 0")
        if not rotation_gates:
            raise ValueError("need at least one rotation gate")
        self.reps = reps
        self.entanglement = entanglement
        self.rotation_gates = tuple(rotation_gates)

        params_per_layer = num_qubits * len(rotation_gates)
        vector = ParameterVector(
            f"{name}_theta", params_per_layer * (reps + 1)
        )
        circuit = QuantumCircuit(num_qubits, name=name)
        ordered: List[Parameter] = list(vector)
        cursor = 0
        for block in range(reps + 1):
            for gate in self.rotation_gates:
                for qubit in range(num_qubits):
                    circuit.append(gate, (qubit,), (vector[cursor],))
                    cursor += 1
            if block < reps:
                for control, target in entanglement_pairs(num_qubits, entanglement):
                    circuit.cx(control, target)
        super().__init__(circuit, ordered)
