"""Batched statevector simulation — the one statevector core.

This engine carries a *leading batch axis* through every gate
application: states are rank-``n+1`` tensors of shape ``(B, 2, ..., 2)``
and each gate is applied to all ``B`` states in one NumPy contraction, so
a VQE iteration's SPSA pair, a population of seeds, or a sweep of
candidate points pays the Python per-gate dispatch cost once. The serial
:class:`~repro.simulator.statevector.StatevectorSimulator` is the ``B=1``
view of this core.

Two contraction kinds cover a compiled plan:

* static gates share one matrix across the batch — a single ``tensordot``
  over the (shifted-by-one) qubit axes;
* parameterized gates have a *different* matrix per batch element — the
  whole ``(B, num_param_ops)`` angle table is built in one affine map
  (:meth:`repro.compiler.GatePlan.bind_angles_batch`), each op's matrices
  are stacked into ``(B, 2**k, 2**k)``, and contracted with batched
  ``matmul``.

Numerics: complex128 throughout; every batch row agrees with a per-op
tensordot walk of the unfused plan to floating-point reassociation
(documented contract: ``<= 1e-12`` absolute on amplitudes and energies —
see ``tests/test_batched_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import (
    STACKED_GATE_BUILDERS as BATCHED_GATE_BUILDERS,
    stacked_gate_matrices as batched_gate_matrices,
)
from repro.compiler import GatePlan, compile_plan
from repro.obs import TRACER
from repro.simulator import kernels
from repro.simulator.kernels import (
    ENGINE_TENSORDOT,
    PendingOneQubitGates,
    apply_gate_tensordot,
    apply_gates_elementwise_reference,
)

__all__ = [
    "BATCHED_GATE_BUILDERS",
    "BatchedStatevectorSimulator",
    "batched_gate_matrices",
    "simulate_statevectors",
]


class BatchedStatevectorSimulator:
    """Executes compiled plans on a whole batch of parameter sets.

    States are ``(B,) + (2,) * n`` tensors; qubit ``q`` lives on tensor
    axis ``q + 1``. One :meth:`run_plan` call pushes all ``B`` parameter
    vectors through the ansatz in a single NumPy pass per gate.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits

    def zero_states(self, batch: int) -> np.ndarray:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        states = np.zeros((batch,) + (2,) * self.num_qubits, dtype=complex)
        states[(slice(None),) + (0,) * self.num_qubits] = 1.0
        return states

    def _initial(
        self, batch: int, initial_states: Optional[np.ndarray]
    ) -> np.ndarray:
        if initial_states is None:
            return self.zero_states(batch)
        return np.array(initial_states, dtype=complex).reshape(
            (batch,) + (2,) * self.num_qubits
        )

    def run_plan(
        self,
        plan: GatePlan,
        thetas: np.ndarray,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a gate plan for a ``(B, P)`` parameter batch.

        The whole ``(B, num_param_ops)`` angle table is one affine NumPy
        map; per-op matrix stacks are built by the vectorized constructors
        in :mod:`repro.circuits.gates`.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan qubit count mismatch")
        angles = plan.bind_angles_batch(thetas)
        states = self._initial(angles.shape[0], initial_states)
        if kernels.kernel_engine() != ENGINE_TENSORDOT:
            return self._run_plan_pair(plan, angles, states)

        # The per-op reference loop: the baseline the pair kernels'
        # speedups are measured against, so it stays unfused.
        def step(op) -> None:
            nonlocal states
            if op.matrix is not None:
                states = apply_gate_tensordot(
                    states, op.matrix, op.qubits, batch_axes=1
                )
            else:
                matrices = batched_gate_matrices(op.gate_name, angles[:, op.slot])
                states = apply_gates_elementwise_reference(
                    states, matrices, op.qubits
                )

        kernels.run_ops(
            plan.ops, step, "sim.batched.run_plan", "kernel.batched.gate",
            site_size=states.size, batch=int(states.shape[0]),
            state_size=2**plan.num_qubits,
        )
        return states

    def _run_plan_pair(
        self, plan: GatePlan, angles: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """Pair-engine plan execution over the batch.

        Static ops apply their shared matrix through the bit-indexed
        kernels; parameterized ops carry per-element ``(B, 2**k, 2**k)``
        stacks.  Single-qubit ops of either kind accumulate per target
        qubit (``matmul`` broadcasting merges shared into per-element
        products) and flush as one kernel call each.
        """
        buffer = kernels.PingPong(states)
        pending = PendingOneQubitGates(plan.num_qubits)
        tracer = TRACER
        traced = tracer.enabled

        def dispatch(matrix, qubits, kernel_class):
            if matrix.ndim == 3:
                out = kernels.apply_gates_elementwise(
                    buffer.state, matrix, qubits, kernel_class=kernel_class,
                    engine="pair", scratch=buffer.scratch, in_place=True,
                )
            else:
                out = kernels.apply_gate(
                    buffer.state, matrix, qubits, batch_axes=1,
                    kernel_class=kernel_class, engine="pair",
                    scratch=buffer.scratch, in_place=True,
                )
            buffer.take(out)

        def apply(matrix, qubits, kernel_class):
            if traced:
                with tracer.kernel_span(
                    "kernel.batched.gate", sites=len(qubits),
                    state_size=buffer.state.size,
                ):
                    dispatch(matrix, qubits, kernel_class)
            else:
                dispatch(matrix, qubits, kernel_class)

        window = kernels.fusion_window(apply, states.size)

        with tracer.span(
            "sim.batched.run_plan", category="kernel",
            ops=len(plan.ops), batch=int(states.shape[0]),
            state_size=2**plan.num_qubits,
        ):
            for op in plan.ops:
                if op.matrix is not None:
                    matrix = op.matrix
                else:
                    matrix = batched_gate_matrices(op.gate_name, angles[:, op.slot])
                if len(op.qubits) == 1:
                    pending.push(op.qubits[0], matrix, op.kernel_class)
                    continue
                kernel_class = op.kernel_class
                if len(op.qubits) == 2:
                    matrix, kernel_class = kernels.absorb_pending_2q(
                        pending, matrix, op.qubits, kernel_class
                    )
                else:
                    window.flush()
                    for qubit in op.qubits:
                        held = pending.pop(qubit)
                        if held is not None:
                            apply(held[0], (qubit,), held[1])
                window.push(matrix, op.qubits, kernel_class)
            window.flush()
            kernels.flush_pending_paired(pending, apply)
        return buffer.state

    def run_flat(
        self,
        plan: GatePlan,
        thetas: np.ndarray,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Like :meth:`run_plan` but returns ``(B, 2**n)`` flat vectors."""
        states = self.run_plan(plan, thetas, initial_states)
        return states.reshape(states.shape[0], -1)


def simulate_statevectors(
    circuit_or_plan: Union[QuantumCircuit, GatePlan],
    thetas: np.ndarray,
) -> np.ndarray:
    """Convenience wrapper: ``(B, P)`` parameters to ``(B, 2**n)`` vectors.

    The batched sibling of
    :func:`repro.simulator.statevector.simulate_statevector`. Circuits
    compile through the shared plan cache.
    """
    plan = circuit_or_plan
    if not isinstance(plan, GatePlan):
        plan = compile_plan(plan)
    return BatchedStatevectorSimulator(plan.num_qubits).run_flat(plan, thetas)
