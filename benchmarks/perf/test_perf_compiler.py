"""Perf benchmarks for the unified compiler pipeline.

Two cost families, each normalized within itself (see
``tools/check_bench.py``):

* ``compile_once_run_many`` — the plan-cache win. The pre-refactor
  ``run_circuit`` path recompiled the bound circuit on every call
  (reproduced here as ``recompile_every_run_8q``, the family's unit of
  measurement); the cached path compiles once and binds many. The derived
  ``compile_once_speedup_vs_recompile`` ratio is gated in CI with a 1.5x
  floor.
* ``fused_vs_unfused_8q`` — the static-gate fusion win on a
  native-basis-shaped circuit, measured as fused vs unfused plan
  execution (``unfused_run_8q`` is the unit of measurement).
"""

from __future__ import annotations

import numpy as np

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import QuantumCircuit
from repro.compiler import clear_plan_cache, compile_plan
from repro.simulator.statevector import StatevectorSimulator
from repro.transpiler.basis import translate_to_basis

QUBITS = 8
RUNS = 32


def _bound_circuit() -> QuantumCircuit:
    """A native-basis ansatz-shaped circuit: long 1q runs around CX layers."""
    ansatz = EfficientSU2(QUBITS, reps=3)
    theta = np.random.default_rng(2023).uniform(
        -np.pi, np.pi, ansatz.num_parameters
    )
    return translate_to_basis(ansatz.bind(theta))


def test_recompile_every_run_8q(record_benchmark):
    circuit = _bound_circuit()
    sim = StatevectorSimulator(QUBITS)

    def recompile_and_run():
        # The pre-refactor hot path: a fresh compile on every invocation.
        total = None
        for _ in range(RUNS):
            plan = compile_plan(circuit, cache=False)
            total = sim.run_plan(plan, np.empty(0))
        return total

    state = record_benchmark(
        "recompile_every_run_8q",
        recompile_and_run,
        rounds=5,
        reference="recompile_every_run_8q",
        qubits=QUBITS,
        runs=RUNS,
    )
    assert np.isfinite(state).all()


def test_compile_once_run_many_8q(record_benchmark):
    circuit = _bound_circuit()
    sim = StatevectorSimulator(QUBITS)
    clear_plan_cache()
    sim.run_circuit(circuit)  # warm the plan cache once, outside the timer

    def run_many():
        total = None
        for _ in range(RUNS):
            total = sim.run_circuit(circuit)
        return total

    state = record_benchmark(
        "compile_once_run_many_8q",
        run_many,
        rounds=5,
        reference="recompile_every_run_8q",
        qubits=QUBITS,
        runs=RUNS,
    )
    assert np.isfinite(state).all()
    # The cached fused plan agrees with an unfused recompile to 1e-12.
    unfused = compile_plan(circuit, fusion=False, cache=False)
    np.testing.assert_allclose(
        np.asarray(state).reshape(-1),
        sim.run_plan(unfused, np.empty(0)).reshape(-1),
        atol=1e-12,
        rtol=0.0,
    )


def test_unfused_run_8q(record_benchmark):
    circuit = _bound_circuit()
    plan = compile_plan(circuit, fusion=False, cache=False)
    sim = StatevectorSimulator(QUBITS)
    state = record_benchmark(
        "unfused_run_8q",
        lambda: sim.run_plan(plan, np.empty(0)),
        rounds=10,
        reference="unfused_run_8q",
        qubits=QUBITS,
        ops=len(plan.ops),
    )
    assert np.isfinite(state).all()


def test_fused_run_8q(record_benchmark):
    circuit = _bound_circuit()
    fused = compile_plan(circuit, fusion=True, cache=False)
    unfused = compile_plan(circuit, fusion=False, cache=False)
    assert len(fused.ops) < len(unfused.ops)
    sim = StatevectorSimulator(QUBITS)
    state = record_benchmark(
        "fused_run_8q",
        lambda: sim.run_plan(fused, np.empty(0)),
        rounds=10,
        reference="unfused_run_8q",
        qubits=QUBITS,
        ops=len(fused.ops),
    )
    assert np.isfinite(state).all()
    np.testing.assert_allclose(
        np.asarray(state).reshape(-1),
        sim.run_plan(unfused, np.empty(0)).reshape(-1),
        atol=1e-12,
        rtol=0.0,
    )
