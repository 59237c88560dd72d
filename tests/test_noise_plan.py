"""Channel-aware noise-plan lowering, fusion, and stacked-Kraus parity."""

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.ansatz.real_amplitudes import RealAmplitudes
from repro.circuits.library import random_circuit
from repro.compiler import (
    ChannelOp,
    clear_plan_cache,
    compile_noise_plan,
    fuse_noise_plan,
    lower_noise_plan,
    noise_fingerprint,
    plan_cache_stats,
)
from repro.compiler.noise_plan import absorb_unitaries, kraus_superoperator
from repro.noise.channels import (
    amplitude_damping_kraus,
    depolarizing_kraus,
    thermal_relaxation_kraus,
)
from repro.noise.noise_model import NoiseModel
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.transpiler.basis import translate_to_basis


def _native_circuit(num_qubits=4, reps=2, seed=3):
    ansatz = EfficientSU2(num_qubits, reps=reps)
    theta = np.random.default_rng(seed).uniform(
        -np.pi, np.pi, ansatz.num_parameters
    )
    return translate_to_basis(ansatz.bind(theta))


def test_lowering_interleaves_channels_with_gates():
    circuit = random_circuit(3, 12, seed=0)
    nm = NoiseModel(0.01, 0.05)
    plan = lower_noise_plan(circuit, nm)
    gates = sum(1 for inst in circuit if inst.name != "barrier")
    assert plan.num_unitary_ops == gates
    assert plan.num_channels == gates  # uniform model: one channel per gate
    assert plan.source_gate_counts == (
        sum(1 for i in circuit if i.name != "barrier" and len(i.qubits) == 1),
        sum(1 for i in circuit if len(i.qubits) == 2),
    )


def test_channel_ops_carry_stacked_kraus_and_superop():
    circuit = random_circuit(3, 10, seed=1)
    plan = lower_noise_plan(circuit, NoiseModel(0.01, 0.05))
    for op in plan.ops:
        if isinstance(op, ChannelOp):
            k = len(op.qubits)
            assert op.kraus.shape == (op.num_kraus, 2**k, 2**k)
            assert op.superop.shape == (4**k, 4**k)
            assert op.matrix is None


def test_identical_channel_sites_share_one_stacked_array():
    circuit = random_circuit(3, 20, seed=2, two_qubit_fraction=0.0)
    plan = lower_noise_plan(circuit, NoiseModel(0.01, 0.05))
    stacks = {
        id(op.kraus) for op in plan.ops if isinstance(op, ChannelOp)
    }
    assert len(stacks) == 1  # every 1q depolarizing site shares one array


def test_kraus_superoperator_matches_definition():
    for kraus in (
        depolarizing_kraus(0.07, 1),
        depolarizing_kraus(0.12, 2),
        amplitude_damping_kraus(0.2),
        thermal_relaxation_kraus(40.0, 60.0, 0.5),
    ):
        stack = np.asarray(kraus)
        # kron(K, conj(K)) indexes as [(i,l),(j,k)] = K[i,j] conj(K)[l,k],
        # exactly the combined ket/bra layout the simulator contracts.
        expected = sum(np.kron(k, k.conj()) for k in stack)
        np.testing.assert_allclose(
            kraus_superoperator(stack), expected, atol=1e-14
        )


def test_fusion_merges_runs_between_channel_sites():
    circuit = _native_circuit()
    nm = NoiseModel(0.004, 0.03, gate_overrides={"rz": 0.0})
    unfused = lower_noise_plan(circuit, nm)
    fused = fuse_noise_plan(unfused)
    assert fused.fused and not unfused.fused
    assert len(fused.ops) < len(unfused.ops)
    assert fused.num_channels == unfused.num_channels
    assert fused.source_gate_counts == unfused.source_gate_counts


def test_absorption_folds_gate_into_following_channel():
    circuit = _native_circuit()
    nm = NoiseModel(0.004, 0.03)  # uniform: every gate carries a channel
    fused = fuse_noise_plan(lower_noise_plan(circuit, nm))
    # Each (gate, channel) pair collapsed into one channel site.
    assert fused.num_unitary_ops == 0
    assert fused.num_channels == sum(
        1 for inst in circuit if inst.name != "barrier"
    )


def test_absorb_unitaries_is_semantics_preserving():
    circuit = random_circuit(4, 24, seed=9)
    nm = NoiseModel(0.01, 0.05)
    plain = lower_noise_plan(circuit, nm)
    absorbed = plain.__class__(
        plain.num_qubits,
        absorb_unitaries(plain.ops),
        source_gate_counts=plain.source_gate_counts,
    )
    dm = DensityMatrixSimulator(4)
    np.testing.assert_allclose(
        dm.run_noise_plan(absorbed),
        dm.run_noise_plan(plain),
        atol=1e-12,
        rtol=0.0,
    )


def _ra6_circuit():
    ansatz = RealAmplitudes(6, reps=2)
    theta = np.random.default_rng(0).uniform(-3, 3, ansatz.num_parameters)
    return ansatz.bind(theta)


@pytest.mark.parametrize(
    "build,overrides,fusion",
    [
        (_native_circuit, {}, None),
        (_native_circuit, {"rz": 0.0}, None),
        # 6q reaches the pair kernels' minimum state size: an unfused plan
        # runs unitaries right after dense superop sites on the same buffer.
        (_ra6_circuit, {}, False),
    ],
    ids=["overrides0", "overrides1", "ra6-unfused"],
)
def test_fused_noise_plan_parity_with_unfused_walk(build, overrides, fusion):
    """Channel-aware fusion parity <= 1e-12 vs the per-instruction walk."""
    circuit = build()
    nm = NoiseModel(0.004, 0.03, gate_overrides=overrides)
    dm = DensityMatrixSimulator(circuit.num_qubits)
    walk = dm.run_circuit_walk(circuit, nm)
    fused = dm.run_noise_plan(
        compile_noise_plan(circuit, nm, fusion=fusion, cache=False)
    )
    np.testing.assert_allclose(fused, walk, atol=1e-12, rtol=0.0)


def test_stacked_apply_kraus_matches_explicit_loop():
    """Vectorized apply_kraus parity <= 1e-12 vs the operator loop."""
    dm = DensityMatrixSimulator(4)
    rho = dm.run_circuit_walk(random_circuit(4, 10, seed=5), NoiseModel(0.01, 0.05))
    cases = [
        (depolarizing_kraus(0.1, 1), (2,)),
        (depolarizing_kraus(0.2, 2), (0, 3)),
        (amplitude_damping_kraus(0.3), (1,)),
        (thermal_relaxation_kraus(30.0, 50.0, 1.0), (3,)),
    ]
    for kraus, qubits in cases:
        fast = dm.apply_kraus(rho, np.asarray(kraus), qubits)
        slow = dm.apply_kraus_loop(rho, kraus, qubits)
        np.testing.assert_allclose(fast, slow, atol=1e-12, rtol=0.0)
    # iterable (non-stacked) input still accepted
    fast = dm.apply_kraus(rho, iter(depolarizing_kraus(0.1, 1)), (0,))
    slow = dm.apply_kraus_loop(rho, depolarizing_kraus(0.1, 1), (0,))
    np.testing.assert_allclose(fast, slow, atol=1e-12, rtol=0.0)


def test_apply_kraus_rejects_bad_input():
    dm = DensityMatrixSimulator(2)
    rho = dm.zero_state()
    with pytest.raises(ValueError):
        dm.apply_kraus(rho, np.empty((0, 2, 2)), (0,))
    with pytest.raises(ValueError):
        dm.apply_kraus_loop(rho, [], (0,))


def test_noise_plan_caching_by_circuit_and_model():
    clear_plan_cache()
    circuit = random_circuit(3, 8, seed=6)
    nm = NoiseModel(0.01, 0.05)
    first = compile_noise_plan(circuit, nm)
    again = compile_noise_plan(circuit, nm)
    assert first is again
    assert first.key.startswith("noise:")
    # a different model misses
    other = compile_noise_plan(circuit, NoiseModel(0.02, 0.05))
    assert other is not first
    stats = plan_cache_stats()
    assert stats["hits"] >= 1


def test_noise_fingerprint_protocol():
    assert noise_fingerprint(NoiseModel(0.01, 0.05)) is not None
    assert noise_fingerprint(object()) is None
    a = NoiseModel(0.01, 0.05).fingerprint()
    b = NoiseModel(0.01, 0.05, gate_overrides={"rz": 0.0}).fingerprint()
    assert a != b
    assert NoiseModel(0.01, 0.05).fingerprint() == a


def test_uncacheable_model_still_lowers():
    class Protocol:
        def channels_for(self, gate_name, qubits):
            if len(qubits) == 1:
                yield depolarizing_kraus(0.05, 1), qubits

    circuit = random_circuit(3, 8, seed=7)
    plan = compile_noise_plan(circuit, Protocol())
    assert plan.key is None
    assert plan.num_channels > 0


def test_unbound_circuit_rejected():
    from repro.ansatz.real_amplitudes import RealAmplitudes

    ansatz = RealAmplitudes(2, reps=1)
    with pytest.raises(ValueError):
        lower_noise_plan(ansatz.circuit, NoiseModel(0.01, 0.05))
