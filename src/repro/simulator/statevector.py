"""Statevector simulation.

States are stored as rank-``n`` tensors of shape ``(2,) * n`` with qubit 0
as the *first* tensor axis. Bitstring conventions elsewhere in the library
print qubit 0 as the leftmost character.

There is one statevector core: :class:`StatevectorSimulator` is a ``B=1``
view of :class:`~repro.simulator.batched.BatchedStatevectorSimulator`. It
lifts a single parameter vector to a one-row batch, runs the batched
plan interpreter (both kernel engines, fusion and tracing live there) and
returns row 0. ``run_circuit`` compiles through the shared plan cache, so
repeated bound-circuit runs are compile-free.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import GatePlan, compile_plan
from repro.simulator.batched import BatchedStatevectorSimulator


class StatevectorSimulator:
    """Executes gate plans / circuits on one pure state."""

    def __init__(self, num_qubits: int):
        self._core = BatchedStatevectorSimulator(num_qubits)
        self.num_qubits = num_qubits

    def zero_state(self) -> np.ndarray:
        return self._core.zero_states(1)[0]

    def run_plan(
        self,
        plan: GatePlan,
        theta: Sequence[float] = (),
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a compiled gate plan and return the final state tensor.

        ``theta`` must have shape ``(P,)``; it runs as the single row of a
        ``(1, P)`` batch, so any other shape raises ``ValueError``.
        """
        thetas = np.asarray(theta, dtype=float)[None]
        return self._core.run_plan(plan, thetas, initial_state)[0]

    def run_circuit(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a fully bound circuit (compiled through the plan cache)."""
        if circuit.num_parameters:
            raise ValueError("circuit has unbound parameters; bind it first")
        plan = compile_plan(circuit)
        return self.run_plan(plan, np.empty(0), initial_state)


def simulate_statevector(
    circuit_or_plan: Union[QuantumCircuit, GatePlan],
    theta: Sequence[float] = (),
) -> np.ndarray:
    """Convenience wrapper returning the flat statevector of length 2**n.

    The flattening uses qubit 0 as the most-significant bit, consistent with
    the tensor layout. Circuits compile through the shared plan cache, so
    ``theta`` must match the circuit's free parameters (empty for a bound
    circuit).
    """
    plan = circuit_or_plan
    if not isinstance(plan, GatePlan):
        plan = compile_plan(plan)
    return StatevectorSimulator(plan.num_qubits).run_plan(plan, theta).reshape(-1)
