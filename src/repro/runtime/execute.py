"""Spec -> result execution.

:func:`execute_run` is the single function that turns a declarative
:class:`~repro.runtime.spec.RunSpec` into a
:class:`~repro.runtime.results.RunResult`. It lives at module level so the
process-pool executor can pickle a reference to it and fan specs out
across worker processes.

Determinism contract: every stochastic stream is derived from the spec's
``seed`` —

* the starting point ``theta0`` from ``(seed, "theta0:<app>")`` (shared by
  every scheme of a comparison cell, unless overridden);
* the transient trace from ``seed`` via the app's trace builder (likewise
  shared per cell);
* the VQE's backend streams from the **per-scheme** label
  ``(seed, "run:<app>:<scheme>")`` — schemes never share shot noise;
* the SPSA perturbation sequence from the **shared** label
  ``(seed, "run:<app>")`` so schemes remain pair-matched (the paper's
  synchronous methodology; see :mod:`repro.experiments.schemes`).

Executing the same spec in any process therefore yields bit-identical
results.

Hot path: every run built here routes its same-circuit evaluations
through the batched engine — SPSA's theta+/theta- pairs (and the
resampling/2SPSA blocks) reach the backend as one block, and
batch-capable backends evaluate them in a single vectorized simulator
pass (see :mod:`repro.simulator.batched`). RNG streams are consumed in
the serial order, so executor choice *and* batching leave results
unchanged (``tests/test_batched_equivalence.py`` pins this).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.experiments.schemes import build_vqe
from repro.faults.inject import INJECTOR
from repro.noise.noise_model import NoiseModel
from repro.obs import TRACER, Stopwatch
from repro.runtime.results import RunResult
from repro.runtime.spec import RunSpec, resolve_app
from repro.utils.rng import derive_seed

#: Each iteration consumes ~3 jobs (two SPSA evaluations plus the
#: candidate measurement) and QISMET retries add more; 5x head-room.
TRACE_JOBS_PER_ITERATION = 5
TRACE_SLACK = 64


def trace_length(iterations: int) -> int:
    return TRACE_JOBS_PER_ITERATION * iterations + TRACE_SLACK


def run_seed(spec: RunSpec) -> int:
    """Per-scheme seed for the run's backend streams."""
    return derive_seed(spec.seed, f"run:{spec.app_name}:{spec.scheme}")


def spsa_seed(spec: RunSpec) -> int:
    """Scheme-shared seed for the SPSA perturbation stream."""
    return derive_seed(spec.seed, f"run:{spec.app_name}")


def warm_plan_cache(spec: RunSpec):
    """Pre-compile a spec's ansatz into the shared plan cache.

    The fleet calls this once per distinct app before spinning up its
    worker threads, so every device worker binds parameters against one
    already-compiled :class:`~repro.compiler.GatePlan` instead of racing
    to compile the same ansatz. Returns the plan.
    """
    app = resolve_app(spec.app)
    return app.build_ansatz().plan


def execute_run(spec: RunSpec) -> RunResult:
    """Execute one spec to completion (synchronously, in this process)."""
    # Chaos boundary: the per-run fault site every worker/executor passes
    # through (a no-op unless a fault plan is installed).
    INJECTOR.fire("execute.run", run_id=spec.run_id)
    with TRACER.span(
        "run.execute", category="execute",
        app=spec.app_name, scheme=spec.scheme, seed=spec.seed,
        iterations=spec.iterations,
    ):
        with TRACER.span("run.build", category="execute", app=spec.app_name):
            app = resolve_app(spec.app)
            overrides = spec.override_dict()
            theta0 = overrides.pop("theta0", None)

            hamiltonian = app.build_hamiltonian()
            noise_model = NoiseModel.from_device(app.build_device())
            trace = None
            if spec.scheme != "noise-free":
                trace = app.build_trace(
                    length=trace_length(spec.iterations), seed=spec.seed
                )
                if spec.trace_scale != 1.0:
                    trace = trace.scaled(spec.trace_scale)

            ansatz = app.build_ansatz()
            if theta0 is None:
                theta0 = ansatz.initial_point(
                    seed=derive_seed(spec.seed, f"theta0:{app.name}")
                )

            from repro.vqa.objective import EnergyObjective

            vqe = build_vqe(
                spec.scheme,
                EnergyObjective(ansatz, hamiltonian),
                trace=trace,
                noise_model=noise_model,
                shots=spec.shots,
                seed=run_seed(spec),
                spsa_seed=spsa_seed(spec),
                iterations_hint=spec.iterations,
                **overrides,
            )
        with Stopwatch() as clock, TRACER.span(
            "run.vqe", category="execute", scheme=spec.scheme
        ):
            result = vqe.run(
                spec.iterations, theta0=np.asarray(theta0, dtype=float)
            )
        return RunResult(
            spec=spec,
            result=result,
            ground_truth=app.ground_truth_energy(),
            elapsed_s=clock.elapsed,
        )


def execute_all(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Execute specs one after another in this process."""
    return [execute_run(spec) for spec in specs]
