"""Batched quantum-trajectory simulation of noisy circuits.

The density-matrix engine is exact but quadratic in state size: ``4**n``
amplitudes evolve per step. A quantum-trajectory unraveling propagates an
ensemble of *pure* states instead — at each channel site a trajectory
samples one Kraus branch ``m`` with the Born probability
``p_m = <psi| K_m^dagger K_m |psi>`` and collapses to
``K_m |psi> / sqrt(p_m)`` — and expectation values converge to the
density-matrix answer as the ensemble grows.

This engine vectorizes the whole ensemble: a ``(B,) + (2,) * n`` batch of
trajectory statevectors moves through the same leading-batch-axis kernels
as :class:`~repro.simulator.batched.BatchedStatevectorSimulator`
(:func:`~repro.simulator.kernels.apply_gate` with ``batch_axes=1``), and
Kraus selection is vectorized across the batch — branch probabilities
for all ``B`` trajectories come from one reduced-Gram contraction per channel
site, one uniform draw per site serves every trajectory, and the chosen
operators apply in at most ``K`` grouped batched contractions.

Consumes the same channel-aware
:class:`~repro.compiler.noise_plan.NoisePlan` IR as the density-matrix
engine, walked by the same interpreter
(:func:`~repro.simulator.kernels.run_ops`), so fusion between channel
sites and unitary absorption benefit both execution routes. Select it
on the shot-level pipeline with ``REPRO_NOISY_ENGINE=traj`` (see
:class:`~repro.backends.counts.CountsBackend`).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import NoisePlan, compile_noise_plan
from repro.simulator import kernels
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["TrajectorySimulator", "unravel_channel_batched"]


def unravel_channel_batched(
    states: np.ndarray,
    kraus: np.ndarray,
    qubits: Tuple[int, ...],
    rng: np.random.Generator,
    probes: Optional[np.ndarray] = None,
    kraus_classes: Optional[Tuple[str, ...]] = None,
    engine: Optional[str] = None,
) -> np.ndarray:
    """Sample and apply one Kraus branch per trajectory, vectorized.

    ``states`` is a normalized ``(B,) + (2,) * n`` batch, ``kraus`` a
    stacked ``(K, 2**k, 2**k)`` array. Branch probabilities are computed
    without materializing any candidate state: the channel qubits'
    reduced Gram matrix ``G_b = Tr_rest |psi_b><psi_b|`` is one
    contraction over the batch, and ``p_m = tr(K_m^dagger K_m G_b)``
    follows from the (tiny) probe matrices — pass the plan-compiled
    stack (:attr:`~repro.compiler.noise_plan.ChannelOp.probes`) via
    ``probes`` to skip rebuilding them per call. One uniform
    draw per trajectory selects the branch; the chosen operators then
    apply in at most ``K`` grouped batched contractions with Born
    renormalization.

    The selected branch operators apply through
    :func:`~repro.simulator.kernels.apply_gate` under ``engine``
    (``kraus_classes`` — :attr:`~repro.compiler.noise_plan.ChannelOp.
    kraus_classes` — spares per-call matrix inspection), and the Born
    renormalization divides the collapsed sub-batch in place.
    """
    kraus = np.asarray(kraus, dtype=complex)
    num_ops, dim = kraus.shape[0], kraus.shape[1]
    k = len(qubits)
    batch = states.shape[0]
    axes = tuple(q + 1 for q in qubits)
    # Reduced Gram matrix of the channel qubits, for every trajectory.
    moved = np.moveaxis(
        states, axes, tuple(range(states.ndim - k, states.ndim))
    )
    flat = moved.reshape(batch, -1, dim)
    gram = np.einsum("bri,brj->bij", flat.conj(), flat)
    if probes is None:
        probes = np.matmul(kraus.conj().transpose(0, 2, 1), kraus)
    probs = np.einsum("mij,bji->bm", probes, gram).real
    np.clip(probs, 0.0, None, out=probs)
    totals = probs.sum(axis=1)
    if not np.all(totals > 0):
        raise ValueError("trajectory lost all norm at a channel site")
    # Vectorized branch selection: one uniform per trajectory against the
    # per-trajectory CDF (scaled by the total, so near-unit norms are
    # handled exactly).
    cdf = np.cumsum(probs, axis=1)
    draws = rng.random(batch) * totals
    choices = np.minimum(
        (draws[:, None] >= cdf).sum(axis=1), num_ops - 1
    )
    out = np.empty_like(states)
    scale_shape = (-1,) + (1,) * (states.ndim - 1)
    for branch in np.unique(choices):
        index = np.nonzero(choices == branch)[0]
        norms = np.sqrt(probs[index, branch] / totals[index])
        # Fancy indexing already copied the sub-batch, so the kernels may
        # collapse and renormalize it in place before scattering back.
        collapsed = kernels.apply_gate(
            states[index], kraus[branch], qubits, batch_axes=1,
            kernel_class=(
                kraus_classes[branch] if kraus_classes is not None else None
            ),
            engine=engine, in_place=True,
        )
        collapsed /= norms.reshape(scale_shape)
        out[index] = collapsed
    return out


class TrajectorySimulator:
    """Noisy execution by batched stochastic unraveling of channels.

    Runs ``B`` trajectories in lock-step through a
    :class:`~repro.compiler.NoisePlan`: unitary segments use the shared
    batched gate kernels, channel sites sample Kraus branches across the
    whole batch at once. Estimators (``probabilities``, ``expectation``)
    average over the ensemble and carry ``O(1/sqrt(B))`` sampling error —
    the trade against the exact (but ``4**n``-sized) density-matrix
    engine.
    """

    def __init__(self, num_qubits: int, seed: SeedLike = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.rng = ensure_rng(seed)

    def zero_states(self, batch: int) -> np.ndarray:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        states = np.zeros((batch,) + (2,) * self.num_qubits, dtype=complex)
        states[(slice(None),) + (0,) * self.num_qubits] = 1.0
        return states

    def _plan_of(
        self, plan_or_circuit: Union[NoisePlan, QuantumCircuit], noise_model
    ) -> NoisePlan:
        if isinstance(plan_or_circuit, NoisePlan):
            return plan_or_circuit
        if noise_model is None:
            raise ValueError("running a circuit requires a noise model")
        return compile_noise_plan(plan_or_circuit, noise_model)

    def run_noise_plan(
        self,
        plan: NoisePlan,
        batch: int,
        rng: Optional[np.random.Generator] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Propagate ``batch`` trajectories; returns ``(B,) + (2,) * n``.

        Every trajectory consumes exactly one uniform draw per channel
        site (drawn batch-wide), so the stream position of ``rng`` after
        a run depends only on the plan — not on which branches happened
        to be selected.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan qubit count mismatch")
        rng = self.rng if rng is None else rng
        if initial_states is None:
            states = self.zero_states(batch)
        else:
            states = np.array(initial_states, dtype=complex).reshape(
                (batch,) + (2,) * self.num_qubits
            )
        engine = kernels.kernel_engine()
        buffer = kernels.PingPong(states)

        def step(op) -> None:
            if op.matrix is not None:
                buffer.apply(
                    op.matrix, op.qubits, batch_axes=1,
                    kernel_class=op.kernel_class, engine=engine,
                )
            else:
                buffer.take(unravel_channel_batched(
                    buffer.state, op.kraus, op.qubits, rng, probes=op.probes,
                    kraus_classes=op.kraus_classes, engine=engine,
                ))

        kernels.run_ops(
            plan.ops, step, "sim.trajectory.run_noise_plan",
            "kernel.traj.gate", "kernel.traj.channel", site_size=states.size,
            batch=batch, state_size=2**plan.num_qubits,
        )
        return buffer.state

    def run_circuit(
        self,
        circuit: QuantumCircuit,
        noise_model,
        batch: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Unravel a bound circuit under a noise model (plan-cached)."""
        return self.run_noise_plan(self._plan_of(circuit, noise_model), batch, rng)

    # -- ensemble estimators ---------------------------------------------------

    def trajectory_probabilities(
        self,
        plan_or_circuit: Union[NoisePlan, QuantumCircuit],
        batch: int,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Per-trajectory outcome distributions, shape ``(B, 2**n)``.

        The shot-level backend samples counts from these rows directly
        (each shot draws from one trajectory's distribution), which is
        the statistically faithful unraveling of the channel ensemble.
        """
        plan = self._plan_of(plan_or_circuit, noise_model)
        states = self.run_noise_plan(plan, batch, rng)
        flat = states.reshape(batch, -1)
        return np.abs(flat) ** 2

    def probabilities(
        self,
        plan_or_circuit: Union[NoisePlan, QuantumCircuit],
        batch: int,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Ensemble-averaged outcome distribution, shape ``(2**n,)``."""
        return self.trajectory_probabilities(
            plan_or_circuit, batch, noise_model, rng
        ).mean(axis=0)

    def expectation(
        self,
        plan_or_circuit: Union[NoisePlan, QuantumCircuit],
        observable,
        batch: int,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Ensemble-averaged expectation of a PauliSum observable.

        Converges to the density-matrix ``tr(rho O)`` as ``B`` grows;
        the per-trajectory expectations evaluate through the matrix-free
        batched Pauli engine.
        """
        plan = self._plan_of(plan_or_circuit, noise_model)
        states = self.run_noise_plan(plan, batch, rng)
        flat = states.reshape(batch, -1)
        return float(observable.batch_expectations(flat).mean())
