"""Unit tests for the batched statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATES
from repro.circuits.parameter import Parameter
from repro.compiler import compile_plan
from repro.simulator.batched import (
    BATCHED_GATE_BUILDERS,
    BatchedStatevectorSimulator,
    batched_gate_matrices,
    simulate_statevectors,
)
from repro.simulator.kernels import (
    apply_gate_tensordot,
    apply_gates_elementwise_reference,
)
from repro.simulator.statevector import simulate_statevector


def test_zero_states():
    simulator = BatchedStatevectorSimulator(3)
    states = simulator.zero_states(4)
    assert states.shape == (4, 2, 2, 2)
    flat = states.reshape(4, -1)
    np.testing.assert_allclose(flat[:, 0], 1.0)
    assert np.count_nonzero(flat) == 4


def test_validation():
    with pytest.raises(ValueError):
        BatchedStatevectorSimulator(0)
    simulator = BatchedStatevectorSimulator(2)
    with pytest.raises(ValueError):
        simulator.zero_states(0)
    plan = compile_plan(QuantumCircuit(3))
    with pytest.raises(ValueError):
        simulator.run_plan(plan, np.zeros((2, 0)))


@pytest.mark.parametrize("gate,qubits", [("h", (0,)), ("cx", (0, 2)), ("cx", (2, 0)), ("swap", (1, 2))])
def test_apply_gate_batched_matches_serial(gate, qubits):
    rng = np.random.default_rng(7)
    matrix = GATES[gate].matrix(())
    states = rng.standard_normal((5,) + (2,) * 3) + 1j * rng.standard_normal(
        (5,) + (2,) * 3
    )
    batched = apply_gate_tensordot(states, matrix, qubits, batch_axes=1)
    for i in range(5):
        expected = apply_gate_tensordot(states[i], matrix, qubits)
        np.testing.assert_allclose(batched[i], expected, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("gate", sorted(BATCHED_GATE_BUILDERS))
def test_batched_gate_builders_match_scalar_constructors(gate):
    angles = np.array([-2.3, -0.5, 0.0, 0.7, 3.1])
    stacked = batched_gate_matrices(gate, angles)
    for angle, matrix in zip(angles, stacked):
        np.testing.assert_array_equal(matrix, GATES[gate].matrix((float(angle),)))


def test_batched_gate_matrices_fallback_path():
    # "u" has no vectorized builder; the stacking fallback must still work
    # for single-parameter gates without one.
    angles = np.array([0.1, 0.2])
    out = batched_gate_matrices("rx", angles)
    assert out.shape == (2, 2, 2)


def test_apply_gates_elementwise_matches_per_element():
    rng = np.random.default_rng(11)
    states = rng.standard_normal((3,) + (2,) * 4) + 1j * rng.standard_normal(
        (3,) + (2,) * 4
    )
    angles = np.array([0.3, -1.2, 2.5])
    matrices = batched_gate_matrices("rzz", angles)
    out = apply_gates_elementwise_reference(states, matrices, (1, 3))
    for i in range(3):
        expected = apply_gate_tensordot(states[i], matrices[i], (1, 3))
        np.testing.assert_allclose(out[i], expected, atol=1e-12, rtol=0.0)


def test_run_plan_matches_reference_ansatz(tensordot_walk):
    ansatz = EfficientSU2(5, reps=3)
    rng = np.random.default_rng(13)
    thetas = rng.uniform(-np.pi, np.pi, (6, ansatz.num_parameters))
    batched = BatchedStatevectorSimulator(5).run_flat(ansatz.plan, thetas)
    unfused = compile_plan(ansatz.circuit, ansatz.parameters, fusion=False)
    for i, theta in enumerate(thetas):
        expected = tensordot_walk(unfused, theta)
        np.testing.assert_allclose(batched[i], expected, atol=1e-12, rtol=0.0)


def test_run_plan_initial_states(tensordot_walk):
    ansatz = EfficientSU2(2, reps=1)
    rng = np.random.default_rng(17)
    thetas = rng.uniform(-1, 1, (2, ansatz.num_parameters))
    initial = np.zeros((2, 4), dtype=complex)
    initial[:, 3] = 1.0
    batched = BatchedStatevectorSimulator(2).run_flat(
        ansatz.plan, thetas, initial_states=initial
    )
    unfused = compile_plan(ansatz.circuit, ansatz.parameters, fusion=False)
    for i, theta in enumerate(thetas):
        expected = tensordot_walk(unfused, theta, initial_state=initial[i])
        np.testing.assert_allclose(batched[i], expected, atol=1e-12, rtol=0.0)


def test_simulate_statevectors_accepts_circuits():
    param = Parameter("a")
    circuit = QuantumCircuit(2)
    circuit.append("h", (0,))
    circuit.append("ry", (1,), (param,))
    circuit.cx(0, 1)
    thetas = np.array([[0.4], [1.9]])
    batched = simulate_statevectors(circuit, thetas)
    for i, theta in enumerate(thetas):
        expected = simulate_statevector(circuit, theta)
        np.testing.assert_allclose(batched[i], expected, atol=1e-12, rtol=0.0)
