import numpy as np
import pytest

from repro.ansatz.base import TwoLocalAnsatz
from repro.ansatz.efficient_su2 import EfficientSU2
from repro.ansatz.entanglement import entanglement_pairs
from repro.ansatz.real_amplitudes import RealAmplitudes
from repro.simulator.statevector import simulate_statevector


def test_entanglement_patterns():
    assert entanglement_pairs(4, "linear") == [(0, 1), (1, 2), (2, 3)]
    assert (3, 0) in entanglement_pairs(4, "circular")
    assert len(entanglement_pairs(4, "full")) == 6
    assert entanglement_pairs(4, "pairwise") == [(0, 1), (2, 3), (1, 2)]
    assert entanglement_pairs(1, "linear") == []
    with pytest.raises(ValueError):
        entanglement_pairs(3, "bogus")


def test_real_amplitudes_parameter_count():
    for reps in (2, 4, 8):
        ansatz = RealAmplitudes(6, reps=reps)
        assert ansatz.num_parameters == 6 * (reps + 1)
        assert ansatz.num_two_qubit_gates == 5 * reps


def test_efficient_su2_parameter_count():
    for reps in (2, 4):
        ansatz = EfficientSU2(6, reps=reps)
        assert ansatz.num_parameters == 2 * 6 * (reps + 1)


def test_real_amplitudes_state_is_real():
    ansatz = RealAmplitudes(3, reps=2)
    theta = ansatz.initial_point(seed=2, scale=0.5)
    sv = simulate_statevector(ansatz.plan, theta)
    assert np.allclose(sv.imag, 0.0, atol=1e-10)


def test_zero_parameters_give_zero_state():
    ansatz = RealAmplitudes(4, reps=3)
    sv = simulate_statevector(ansatz.plan, np.zeros(ansatz.num_parameters))
    assert abs(sv[0]) == pytest.approx(1.0, abs=1e-10)


def test_bind_matches_program():
    ansatz = EfficientSU2(3, reps=2)
    theta = ansatz.initial_point(seed=7)
    sv_plan = simulate_statevector(ansatz.plan, theta)
    sv_bound = simulate_statevector(ansatz.bind(theta))
    assert np.allclose(sv_plan, sv_bound, atol=1e-12)


def test_bind_shape_check():
    ansatz = RealAmplitudes(2, reps=1)
    with pytest.raises(ValueError):
        ansatz.bind([0.1])


def test_initial_point_seeded_and_small():
    ansatz = RealAmplitudes(4, reps=2)
    a = ansatz.initial_point(seed=5)
    b = ansatz.initial_point(seed=5)
    assert np.allclose(a, b)
    assert np.all(np.abs(a) <= 0.1 * np.pi)


def test_circuit_copy_isolated():
    ansatz = RealAmplitudes(2, reps=1)
    circ = ansatz.circuit
    circ.x(0)
    assert len(ansatz.circuit) == len(circ) - 1


def test_two_local_validation():
    with pytest.raises(ValueError):
        TwoLocalAnsatz(3, rotation_gates=(), reps=1)
    with pytest.raises(ValueError):
        TwoLocalAnsatz(3, rotation_gates=("ry",), reps=-1)


def test_expressivity_reaches_ghz_overlap():
    # sanity: the ansatz explores entangled space (nonzero gradient of
    # entanglement); RA(2, reps=1) can produce a Bell state exactly.
    ansatz = RealAmplitudes(2, reps=1)
    theta = np.array([np.pi / 2, 0.0, 0.0, 0.0])
    sv = simulate_statevector(ansatz.plan, theta)
    probs = np.abs(sv) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-10)
    assert probs[3] == pytest.approx(0.5, abs=1e-10)
