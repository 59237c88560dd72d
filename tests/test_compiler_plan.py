"""The GatePlan IR, vectorized binding, and the shared plan cache.

Fusion *correctness* (fused vs unfused parity across simulators) lives in
``tests/test_compiler_fusion.py``; this module covers the structural
contracts: lowering equivalence with per-gate scalar constructors,
the one-affine-map binding, cache keying/LRU behavior, and the
``REPRO_FUSION`` / ``REPRO_PLAN_CACHE`` knobs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import random_circuit
from repro.circuits.parameter import Parameter
from repro.compiler import (
    PLAN_CACHE,
    GatePlan,
    clear_plan_cache,
    compile_plan,
    fusion_enabled,
    lower_circuit,
    plan_cache_stats,
)
from repro.simulator.statevector import StatevectorSimulator


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _param_circuit() -> QuantumCircuit:
    a, b = Parameter("a"), Parameter("b")
    qc = QuantumCircuit(3)
    qc.h(0)
    qc.ry(a, 0)
    qc.cx(0, 1)
    qc.rz(2 * b + 0.5, 2)
    qc.sx(1)
    qc.rx(b, 1)
    qc.crz(-1.0 * a + 0.25, 1, 2)
    return qc


# -- lowering --------------------------------------------------------------------


def test_lowering_matches_compiled_program_exactly():
    # The pipeline's lower pass (fusion off) is exactly lower_circuit.
    qc = _param_circuit()
    lowered = lower_circuit(qc)
    plan = compile_plan(qc, fusion=False, cache=False)
    theta = np.array([0.31, -1.7])
    plan_mats = list(plan.op_matrices(theta))
    lowered_mats = list(lowered.op_matrices(theta))
    assert len(plan_mats) == len(lowered_mats) == len(qc)
    for (q_plan, m_plan), (q_low, m_low) in zip(plan_mats, lowered_mats):
        assert q_plan == q_low
        np.testing.assert_array_equal(m_plan, m_low)
    np.testing.assert_array_equal(plan.param_indices, lowered.param_indices)
    assert plan.source_gate_counts == lowered.source_gate_counts


def test_plan_records_source_gate_counts():
    qc = _param_circuit()
    plan = compile_plan(qc, fusion=True, cache=False)
    # 5 single-qubit ops + cx + crz, regardless of fusion.
    assert plan.source_gate_counts == (5, 2)
    assert plan.num_1q_gates == 5
    assert plan.num_2q_gates == 2


def test_barriers_are_dropped_in_lowering():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.barrier()
    qc.cx(0, 1)
    plan = compile_plan(qc, fusion=False, cache=False)
    assert len(plan.ops) == 2


# -- vectorized binding ----------------------------------------------------------


def test_bind_angles_is_affine_map():
    qc = _param_circuit()
    plan = compile_plan(qc, fusion=False, cache=False)
    theta = np.array([0.4, 1.1])
    angles = plan.bind_angles(theta)
    expected = plan.coeffs * theta[plan.param_indices] + plan.offsets
    np.testing.assert_array_equal(angles, expected)
    # ry(a), rz(2b+0.5), rx(b), crz(-a+0.25)
    np.testing.assert_allclose(
        angles, [0.4, 2 * 1.1 + 0.5, 1.1, -0.4 + 0.25], atol=1e-15
    )


def test_bind_angles_batch_matches_rowwise():
    qc = _param_circuit()
    plan = compile_plan(qc, cache=False)
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-np.pi, np.pi, (5, plan.num_parameters))
    batch = plan.bind_angles_batch(thetas)
    assert batch.shape == (5, plan.num_param_ops)
    for i, theta in enumerate(thetas):
        np.testing.assert_array_equal(batch[i], plan.bind_angles(theta))


def test_bind_angles_validates_shape():
    plan = compile_plan(_param_circuit(), cache=False)
    with pytest.raises(ValueError, match="expected 2 parameters"):
        plan.bind_angles(np.zeros(3))
    with pytest.raises(ValueError, match=r"expected thetas of shape \(B, 2\)"):
        plan.bind_angles_batch(np.zeros((4, 3)))


def test_compiled_program_op_matrices_still_validates():
    plan = lower_circuit(_param_circuit())
    with pytest.raises(ValueError, match="expected 2 parameters"):
        list(plan.op_matrices(np.zeros(5)))


def test_vectorized_program_matches_scalar_constructors():
    # The kind-grouped stacked builders must be bit-identical to scalar
    # gate constructors applied to the bound circuit, op by op.
    from repro.circuits.gates import GATES

    qc = _param_circuit()
    plan = lower_circuit(qc)
    theta = np.array([-0.9, 2.2])
    bound = qc.bind(theta)
    for inst, (qubits, matrix) in zip(bound, plan.op_matrices(theta)):
        assert qubits == inst.qubits
        np.testing.assert_array_equal(
            matrix, GATES[inst.name].matrix(tuple(inst.params))
        )


# -- plan cache ------------------------------------------------------------------


def test_repeated_compile_hits_cache():
    qc = random_circuit(3, 12, seed=3)
    first = compile_plan(qc)
    before = plan_cache_stats()
    second = compile_plan(qc)
    after = plan_cache_stats()
    assert first is second
    assert after["hits"] == before["hits"] + 1


def test_structurally_identical_circuits_share_plans():
    plan_a = EfficientSU2(4, reps=2).plan
    plan_b = EfficientSU2(4, reps=2).plan
    assert plan_a is plan_b
    assert EfficientSU2(4, reps=3).plan is not plan_a


def test_run_circuit_is_compile_free_on_repeat():
    qc = random_circuit(4, 20, seed=11).copy()
    sim = StatevectorSimulator(4)
    first = sim.run_circuit(qc)
    misses_after_first = plan_cache_stats()["misses"]
    for _ in range(3):
        again = sim.run_circuit(qc)
    assert plan_cache_stats()["misses"] == misses_after_first
    np.testing.assert_array_equal(first, again)


def test_cache_lru_eviction(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", "2")
    clear_plan_cache()
    circuits = [random_circuit(2, 6, seed=s) for s in range(3)]
    for qc in circuits:
        compile_plan(qc)
    stats = plan_cache_stats()
    assert stats["size"] == 2
    assert stats["evictions"] == 1
    # Oldest entry (seed 0) was evicted: recompiling it misses.
    misses = plan_cache_stats()["misses"]
    compile_plan(circuits[0])
    assert plan_cache_stats()["misses"] == misses + 1


def test_cache_disabled_via_env(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
    clear_plan_cache()
    qc = random_circuit(2, 5, seed=1)
    first = compile_plan(qc)
    second = compile_plan(qc)
    assert first is not second
    assert plan_cache_stats()["size"] == 0


def test_cache_keys_separate_fused_and_unfused():
    qc = random_circuit(3, 15, seed=9)
    fused = compile_plan(qc, fusion=True)
    unfused = compile_plan(qc, fusion=False)
    assert fused is not unfused
    assert fused.fused and not unfused.fused
    assert len(PLAN_CACHE) == 2


# -- REPRO_FUSION kill switch ----------------------------------------------------


def test_fusion_env_kill_switch(monkeypatch):
    monkeypatch.delenv("REPRO_FUSION", raising=False)
    assert fusion_enabled()
    for value in ("0", "off", "false", "no"):
        monkeypatch.setenv("REPRO_FUSION", value)
        assert not fusion_enabled()
    monkeypatch.setenv("REPRO_FUSION", "1")
    assert fusion_enabled()


def test_fusion_disabled_produces_unfused_plan(monkeypatch):
    qc = random_circuit(3, 20, seed=5)
    fused = compile_plan(qc, cache=False)
    monkeypatch.setenv("REPRO_FUSION", "0")
    unfused = compile_plan(qc, cache=False)
    assert not unfused.fused
    assert len(unfused.ops) == len(lower_circuit(qc).ops)
    assert len(fused.ops) < len(unfused.ops)


def test_plan_repr_and_key():
    qc = random_circuit(2, 4, seed=2)
    plan = compile_plan(qc)
    assert isinstance(plan, GatePlan)
    assert plan.key and plan.key.startswith("plan:")
    assert "GatePlan" in repr(plan)
