import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.circuits.library import random_circuit
from repro.simulator.kernels import apply_gate_tensordot
from repro.simulator.statevector import (
    StatevectorSimulator,
    simulate_statevector,
)


def _dense_unitary(circuit):
    """Reference: build the full-circuit unitary by kron products."""
    n = circuit.num_qubits
    dim = 2**n
    total = np.eye(dim, dtype=complex)
    for inst in circuit:
        if inst.name == "barrier":
            continue
        gate = gate_matrix(inst.name, tuple(float(p) for p in inst.params))
        full = _embed(gate, inst.qubits, n)
        total = full @ total
    return total


def _embed(gate, qubits, n):
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    k = len(qubits)
    for row in range(dim):
        row_bits = [(row >> (n - 1 - q)) & 1 for q in range(n)]
        sub_row = 0
        for q in qubits:
            sub_row = (sub_row << 1) | row_bits[q]
        for sub_col in range(2**k):
            amp = gate[sub_row, sub_col]
            if amp == 0:
                continue
            col_bits = list(row_bits)
            for i, q in enumerate(qubits):
                col_bits[q] = (sub_col >> (k - 1 - i)) & 1
            col = 0
            for bit in col_bits:
                col = (col << 1) | bit
            full[row, col] += amp
    return full


def test_zero_state():
    sim = StatevectorSimulator(3)
    state = sim.zero_state().reshape(-1)
    assert state[0] == 1.0
    assert np.sum(np.abs(state)) == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_dense_unitary_reference(seed):
    circuit = random_circuit(3, 25, seed=seed)
    sv = simulate_statevector(circuit)
    ref = _dense_unitary(circuit)[:, 0]
    assert np.allclose(sv, ref, atol=1e-10)


def test_norm_preserved():
    circuit = random_circuit(4, 60, seed=9)
    sv = simulate_statevector(circuit)
    assert np.vdot(sv, sv).real == pytest.approx(1.0, abs=1e-10)


def test_apply_gate_two_qubit_ordering():
    # CX with control 1, target 0 on |01> (q0=0, q1=1) -> |11>
    sim = StatevectorSimulator(2)
    state = sim.zero_state()
    state = apply_gate_tensordot(state, gate_matrix("x"), (1,))
    state = apply_gate_tensordot(state, gate_matrix("cx"), (1, 0))
    flat = state.reshape(-1)
    assert abs(flat[0b11]) == pytest.approx(1.0)


def test_unbound_circuit_rejected():
    from repro.circuits.parameter import Parameter

    qc = QuantumCircuit(1)
    qc.ry(Parameter("t"), 0)
    sim = StatevectorSimulator(1)
    with pytest.raises(ValueError):
        sim.run_circuit(qc)
    # The converse mismatch: a stray theta on a bound circuit.
    with pytest.raises(ValueError):
        simulate_statevector(qc.bind([0.3]), theta=[1.0, 2.0])


def test_initial_state_respected():
    sim = StatevectorSimulator(1)
    plus = np.array([1, 1]) / np.sqrt(2)
    qc = QuantumCircuit(1)
    qc.h(0)
    out = sim.run_circuit(qc, initial_state=plus).reshape(-1)
    # H|+> = |0>
    assert abs(out[0]) == pytest.approx(1.0, abs=1e-10)
