"""Quantum state simulation engines.

Four engines are provided: a batched statevector simulator (pure
states with a leading batch axis over parameter sets — the fast path for
VQE objective evaluation), its serial ``B=1`` view, a density-matrix
simulator (mixed states,
Kraus noise channels compiled to per-site superoperators; validates the
energy-level noise approximations of the transient backend), and a
batched quantum-trajectory simulator (stochastic channel unraveling over
an ensemble of pure states, sharing the batched gate kernels).

All four route gate application through :mod:`repro.simulator.kernels`:
``REPRO_KERNEL=pair`` (the default) selects the bit-indexed in-place
kernels, ``REPRO_KERNEL=tensordot`` the historic reshape + ``tensordot``
reference path.
"""

from repro.simulator import kernels
from repro.simulator.kernels import (
    ENGINE_PAIR,
    ENGINE_TENSORDOT,
    apply_gate_tensordot,
    kernel_engine,
)
from repro.simulator.statevector import StatevectorSimulator, simulate_statevector
from repro.simulator.batched import BatchedStatevectorSimulator, simulate_statevectors
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.trajectory import TrajectorySimulator, unravel_channel_batched
from repro.simulator.sampling import (
    counts_from_probabilities,
    counts_from_trajectory_rows,
    sample_counts,
    sample_plan,
)
from repro.simulator.expectation import (
    expectation_from_counts,
    expectation_of_matrix,
    expectation_of_pauli_sum,
)

__all__ = [
    "ENGINE_PAIR",
    "ENGINE_TENSORDOT",
    "apply_gate_tensordot",
    "kernel_engine",
    "kernels",
    "StatevectorSimulator",
    "simulate_statevector",
    "BatchedStatevectorSimulator",
    "simulate_statevectors",
    "DensityMatrixSimulator",
    "TrajectorySimulator",
    "unravel_channel_batched",
    "counts_from_probabilities",
    "counts_from_trajectory_rows",
    "sample_counts",
    "sample_plan",
    "expectation_from_counts",
    "expectation_of_matrix",
    "expectation_of_pauli_sum",
]
