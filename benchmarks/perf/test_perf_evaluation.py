"""Perf benchmarks for the VQE evaluation hot path.

Three tiers, matching how the batched engine is consumed:

* ``single_eval`` / ``serial_8x`` — the per-circuit baseline the paper's
  thousands of SPSA evaluations pay without batching;
* ``batch_8x`` — the same eight parameter sets through one
  :meth:`EnergyObjective.batch_energies` call (dense path) plus the
  matrix-free variant and a 24-seed population step;
* ``fig17_scale`` — a reduced fig17-shaped end-to-end comparison
  (one app, baseline vs QISMET) through the experiment-plan runtime.

Timings land in ``BENCH_perf.json``; correctness of the batched/serial
contract is asserted in ``tests/test_batched_equivalence.py`` — here we
only keep a cheap sanity check that the batch returns finite energies.
"""

from __future__ import annotations

import numpy as np

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.hamiltonians.tfim import tfim_hamiltonian
from repro.optimizers.spsa import SPSA
from repro.runtime import ExperimentPlan, run_plan
from repro.vqa.multi_vqe import PopulationVQE
from repro.vqa.objective import EnergyObjective

QUBITS = 8
BATCH = 8


def _objective() -> EnergyObjective:
    return EnergyObjective(EfficientSU2(QUBITS, reps=3), tfim_hamiltonian(QUBITS))


def _thetas(batch: int, num_parameters: int) -> np.ndarray:
    rng = np.random.default_rng(2023)
    return rng.uniform(-np.pi, np.pi, (batch, num_parameters))


def test_single_eval_8q(record_benchmark):
    objective = _objective()
    theta = _thetas(1, objective.num_parameters)[0]
    energy = record_benchmark(
        "single_eval_8q",
        lambda: objective.ideal_energy(theta),
        rounds=20,
        qubits=QUBITS,
    )
    assert np.isfinite(energy)


def test_serial_8x_eval_8q(record_benchmark):
    objective = _objective()
    thetas = _thetas(BATCH, objective.num_parameters)

    def serial():
        return [objective.ideal_energy(theta) for theta in thetas]

    energies = record_benchmark(
        "serial_8x_eval_8q", serial, rounds=10, qubits=QUBITS, batch=BATCH
    )
    assert np.isfinite(energies).all()


def test_batch_8x_eval_8q(record_benchmark):
    objective = _objective()
    thetas = _thetas(BATCH, objective.num_parameters)
    energies = record_benchmark(
        "batch_8x_eval_8q",
        lambda: objective.batch_energies(thetas),
        rounds=10,
        qubits=QUBITS,
        batch=BATCH,
    )
    assert np.isfinite(energies).all()


def test_batch_8x_matrix_free_8q(record_benchmark, monkeypatch):
    import repro.vqa.objective as objective_module

    monkeypatch.setattr(objective_module, "_DENSE_LIMIT_QUBITS", 0)
    objective = _objective()
    assert not objective.uses_dense_hamiltonian
    thetas = _thetas(BATCH, objective.num_parameters)
    energies = record_benchmark(
        "batch_8x_matrix_free_8q",
        lambda: objective.batch_energies(thetas),
        rounds=10,
        qubits=QUBITS,
        batch=BATCH,
    )
    assert np.isfinite(energies).all()


def test_population_vqe_24_seeds(record_benchmark):
    objective = _objective()
    population = PopulationVQE(
        objective, lambda seed: SPSA(seed=seed), track_true_energy=False
    )

    def run():
        return population.run(5, seeds=range(24))

    results = record_benchmark(
        "population_vqe_24x5_8q",
        run,
        rounds=3,
        # Dispatch-bound like the serial loop, not kernel-bound like a
        # single eval: normalize within the same cost family so the CI
        # gate is stable across machines with different BLAS/runtime
        # speed balances.
        reference="serial_8x_eval_8q",
        qubits=QUBITS,
        seeds=24,
        iterations=5,
    )
    assert len(results) == 24


def test_fig17_scale_end_to_end(record_benchmark):
    plan = ExperimentPlan.single("App1", ("baseline", "qismet"), 25, seed=2023)

    def run():
        return run_plan(plan).comparison("App1")

    comparison = record_benchmark(
        "fig17_scale_app1_2schemes_25it",
        run,
        rounds=3,
        reference="serial_8x_eval_8q",
        schemes=2,
        iterations=25,
    )
    assert set(comparison.results) == {"baseline", "qismet"}
