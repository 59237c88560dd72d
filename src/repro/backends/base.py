"""Backend protocol: quantum jobs yielding energy estimates.

The job abstraction mirrors the paper's Fig. 7: a VQA run is a sequence of
jobs; each job is a batch of circuits executed close together in time and
therefore exposed to the *same* transient noise instance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class EnergyJob:
    """One quantum job: evaluates energies under a fixed noise instant."""

    def __init__(self, backend: "EnergyBackend", index: int):
        self.backend = backend
        self.index = index
        self.circuits_run = 0

    def energy(self, theta: np.ndarray) -> float:
        """Objective estimate for parameters ``theta`` within this job."""
        self.circuits_run += 1
        self.backend.total_circuits += 1
        return self.backend._evaluate(np.asarray(theta, dtype=float), self.index)


class EnergyBackend:
    """Base backend; subclasses implement ``_evaluate``.

    Backends whose per-job evaluation is independent of job *creation*
    order (everything keyed off ``job_index`` plus a sequentially consumed
    RNG) may set ``supports_batch = True`` and override
    :meth:`_evaluate_batch` to vectorize the expensive ideal-energy part
    across a whole block of evaluations. Job accounting — one job per
    evaluation, one circuit per job — is identical on both paths.
    """

    #: Opt-in flag for the batched evaluation fast path.
    supports_batch = False

    def __init__(self) -> None:
        self.job_counter = 0
        self.total_circuits = 0

    def new_job(self) -> EnergyJob:
        """Open the next job; advances the backend's noise clock."""
        job = EnergyJob(self, self.job_counter)
        self.job_counter += 1
        return job

    def _evaluate(self, theta: np.ndarray, job_index: int) -> float:
        raise NotImplementedError

    def _evaluate_batch(
        self, thetas: np.ndarray, job_indices: Sequence[int]
    ) -> np.ndarray:
        """Batched ``_evaluate``; override together with ``supports_batch``.

        Implementations must consume any backend RNG in the same order as
        ``[_evaluate(t, j) for t, j in zip(thetas, job_indices)]`` so that
        batched and serial execution draw identical noise streams.
        """
        return np.array(
            [self._evaluate(t, j) for t, j in zip(thetas, job_indices)],
            dtype=float,
        )

    def evaluate_jobs(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate a ``(B, P)`` block, one quantum job per row.

        Batch-capable backends open all jobs up front and evaluate the
        block in one :meth:`_evaluate_batch` call; the rest interleave
        ``new_job``/``energy`` exactly like serial callers (some backends
        — e.g. the Kalman wrapper — couple evaluation to job creation
        order).
        """
        thetas = np.asarray(thetas, dtype=float)
        if not self.supports_batch:
            return np.array(
                [self.new_job().energy(theta) for theta in thetas], dtype=float
            )
        jobs = [self.new_job() for _ in range(len(thetas))]
        for job in jobs:
            job.circuits_run += 1
        self.total_circuits += len(jobs)
        return self._evaluate_batch(thetas, [job.index for job in jobs])

    def reset(self) -> None:
        self.job_counter = 0
        self.total_circuits = 0
