"""Which program entry points the tracer wraps, and the per-layer metrics.

Span names are layer names taken from the program's modules. Every
``.s`` metric is the layer's *self* time (its spans minus their traced
children), so the layer times of one pass add up to the traced time the
spans cover. All per-layer numbers are per traced pass.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from tracer import LayerTracer, covered_seconds, summarize

#: Kernel classes of the program's always-on ``kernel.<class>.*`` counters.
KERNEL_CLASSES = ("diagonal", "1q-pair", "2q-quad", "dense-k")
#: Cache families of the program's ``cache.<family>.{hits,misses}`` counters.
CACHE_FAMILIES = (
    "plan", "device", "noise", "counts.lowerings", "counts.noise_plans",
    "counts.group_plans", "counts.measured",
)

#: name -> unit, in report order. BENCHMARK.json lists the same names.
PER_LAYER_UNITS: Dict[str, str] = {
    "simulator.statevector.calls": "count",
    "simulator.statevector.s": "s",
    **{
        f"kernel.{cls}.{kind}": unit
        for cls in KERNEL_CLASSES
        for kind, unit in (("calls", "count"), ("bytes", "B_computed"))
    },
    "simulator.batched.calls": "count",
    "simulator.batched.rows": "count",
    "simulator.batched.s": "s",
    "objective.serial_calls": "count",
    "objective.batch_rows": "count",
    "objective.batched_frac": "ratio",
    "objective.expect_s": "s",
    "vqa.loop_s": "s",
    "vqa.tracking_calls": "count",
    "vqa.tracking_s": "s",
    "optimizers.propose.calls": "count",
    "optimizers.propose.s": "s",
    "core.guard_s": "s",
    "core.decide_calls": "count",
    "core.decide_s": "s",
    "core.retry_ratio": "ratio",
    "filtering.update.calls": "count",
    "filtering.update.s": "s",
    "backends.serial_evals": "count",
    "backends.batched_rows": "count",
    "backends.noise_s": "s",
    "runtime.build_s": "s",
    "compiler.plan.calls": "count",
    "compiler.plan.s": "s",
    **{
        f"cache.{family}.{kind}": "count"
        for family in CACHE_FAMILIES
        for kind in ("hits", "misses")
    },
    "compiler.transpile.calls": "count",
    "compiler.transpile.s": "s",
    "compiler.noise_plan.calls": "count",
    "compiler.noise_plan.s": "s",
    "simulator.trajectory.s": "s",
    "simulator.channel.calls": "count",
    "simulator.channel.s": "s",
    "simulator.sampling.s": "s",
    "counts.estimate_s": "s",
    "store.write.calls": "count",
    "store.write.s": "s",
    "store.write.bytes": "B",
    "store.read.calls": "count",
    "store.read.s": "s",
    "fleet.route.calls": "count",
    "fleet.route.s": "s",
    "fleet.jobstore.s": "s",
    "fleet.queue_wait_p50_s": "s",
    "fleet.worker_busy_frac": "ratio",
    "fleet.deferrals": "count",
    "faults.retries": "count",
    "bench.trace_overhead": "ratio",
    "bench.coverage": "ratio",
}


def _store_bytes(args, _kwargs) -> float:
    """Size of the store's SQLite database (pages x page size)."""
    conn = args[0]._conn
    pages = conn.execute("PRAGMA page_count").fetchone()[0]
    size = conn.execute("PRAGMA page_size").fetchone()[0]
    return float(pages * size)


def _rows(position: int):
    return lambda args, kwargs: len(args[position])


def build_tracer() -> LayerTracer:
    """A tracer registered on every layer entry point the workloads reach."""
    from repro.backends import base as backends_base
    from repro.backends.counts import CountsBackend
    from repro.compiler import api as compiler_api
    from repro.compiler import noise_plan as compiler_noise_plan
    from repro.core.controller import QismetController
    from repro.core.executor import GuardedEvaluator
    from repro.filtering.kalman import KalmanFilter1D
    from repro.fleet.executor import FleetExecutor
    from repro.fleet.scheduler import TransientAwareScheduler
    from repro.fleet.service import FleetService
    from repro.fleet.store import JobStore
    from repro.optimizers.spsa import SPSA, ResamplingSPSA, SecondOrderSPSA
    from repro.runtime import execute as runtime_execute
    from repro.simulator import sampling, trajectory
    from repro.simulator.batched import BatchedStatevectorSimulator
    from repro.simulator.statevector import StatevectorSimulator
    from repro.store.store import ExperimentStore
    from repro.vqa.objective import EnergyObjective
    from repro.vqa.vqe import VQE

    tracer = LayerTracer()
    tracer.function(runtime_execute, "execute_run", "runtime.execute")
    tracer.method(VQE, "run", "vqa.run")
    tracer.method(EnergyObjective, "ideal_energy", "objective.ideal")
    tracer.method(EnergyObjective, "batch_energies", "objective.batch", rows=_rows(1))
    tracer.method(StatevectorSimulator, "run_plan", "simulator.statevector")
    tracer.method(
        BatchedStatevectorSimulator, "run_flat", "simulator.batched", rows=_rows(2)
    )
    for cls in (SPSA, ResamplingSPSA, SecondOrderSPSA):
        tracer.method(cls, "propose", "optimizers.propose")
    tracer.method(GuardedEvaluator, "energy", "core.guard")
    tracer.method(QismetController, "decide", "core.decide")
    tracer.method(KalmanFilter1D, "update", "filtering.update")
    tracer.method(backends_base.EnergyJob, "energy", "backends.energy")
    tracer.method(
        backends_base.EnergyBackend, "evaluate_jobs", "backends.jobs", rows=_rows(1)
    )
    tracer.function(compiler_api, "compile_plan", "compiler.plan")
    tracer.function(compiler_api, "transpile_then_compile", "compiler.transpile")
    tracer.function(compiler_noise_plan, "compile_noise_plan", "compiler.noise_plan")
    tracer.method(trajectory.TrajectorySimulator, "run_noise_plan", "simulator.trajectory")
    tracer.method(
        trajectory.TrajectorySimulator, "trajectory_probabilities",
        "simulator.trajectory",
    )
    tracer.function(trajectory, "unravel_channel_batched", "simulator.channel")
    tracer.function(sampling, "counts_from_trajectory_rows", "simulator.sampling")
    tracer.method(CountsBackend, "estimate_energy", "counts.estimate")
    for attr in ("append", "append_many", "append_trace", "record_plan"):
        tracer.method(ExperimentStore, attr, "store.write", size=_store_bytes)
    for attr in ("get", "query_runs", "comparisons", "aggregate"):
        tracer.method(ExperimentStore, attr, "store.read")
    tracer.method(TransientAwareScheduler, "route", "fleet.route")
    for attr in ("enqueue", "mark_running", "mark_done"):
        tracer.method(JobStore, attr, "fleet.jobstore")
    tracer.method(FleetService, "drain", "fleet.drain")
    tracer.method(FleetExecutor, "__init__", "fleet.open")
    tracer.method(FleetExecutor, "run", "fleet.run")
    return tracer


def layer_metrics(
    spans: Sequence[Tuple],
    windows: Sequence[Tuple[float, float]],
    counter_deltas: Dict[str, float],
    traced_walls: Sequence[float],
    plain_walls: Sequence[float],
    extras: Dict[str, float],
    main_thread: int,
) -> Dict[str, float]:
    """Per-traced-pass layer metrics from the traced passes' spans."""
    passes = max(1, len(windows))
    agg = summarize(spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0) / passes

    names = {span[0]: span[1] for span in spans}
    tracking = [
        span for span in spans
        if span[1] == "objective.ideal" and names.get(span[4]) == "vqa.run"
    ]
    serial_calls = get("objective.ideal", "calls")
    batch_rows = get("objective.batch", "amount")
    worker_busy = sum(
        span[3] - span[2] for span in spans
        if span[5] != main_thread and span[4] == -1
    )
    drain_wall = sum(
        span[3] - span[2] for span in spans if span[1] == "fleet.drain"
    )
    workers = extras.get("workers", 1.0)
    out = {
        "simulator.statevector.calls": get("simulator.statevector", "calls"),
        "simulator.statevector.s": get("simulator.statevector", "self_s"),
        "simulator.batched.calls": get("simulator.batched", "calls"),
        "simulator.batched.rows": get("simulator.batched", "amount"),
        "simulator.batched.s": get("simulator.batched", "self_s"),
        "objective.serial_calls": serial_calls,
        "objective.batch_rows": batch_rows,
        "objective.batched_frac": (
            batch_rows / (batch_rows + serial_calls)
            if batch_rows + serial_calls else 0.0
        ),
        "objective.expect_s": (
            get("objective.ideal", "self_s") + get("objective.batch", "self_s")
        ),
        "vqa.loop_s": get("vqa.run", "self_s"),
        "vqa.tracking_calls": len(tracking) / passes,
        "vqa.tracking_s": sum(s[3] - s[2] for s in tracking) / passes,
        "optimizers.propose.calls": get("optimizers.propose", "calls"),
        "optimizers.propose.s": get("optimizers.propose", "self_s"),
        "core.guard_s": get("core.guard", "self_s"),
        "core.decide_calls": get("core.decide", "calls"),
        "core.decide_s": get("core.decide", "self_s"),
        "core.retry_ratio": (
            extras["qismet_retries"] / extras["qismet_iterations"]
            if extras.get("qismet_iterations") else 0.0
        ),
        "filtering.update.calls": get("filtering.update", "calls"),
        "filtering.update.s": get("filtering.update", "self_s"),
        "backends.serial_evals": get("backends.energy", "calls"),
        "backends.batched_rows": get("backends.jobs", "amount"),
        "backends.noise_s": (
            get("backends.energy", "self_s") + get("backends.jobs", "self_s")
        ),
        "runtime.build_s": get("runtime.execute", "self_s"),
        "compiler.plan.calls": get("compiler.plan", "calls"),
        "compiler.plan.s": get("compiler.plan", "self_s"),
        "compiler.transpile.calls": get("compiler.transpile", "calls"),
        "compiler.transpile.s": get("compiler.transpile", "self_s"),
        "compiler.noise_plan.calls": get("compiler.noise_plan", "calls"),
        "compiler.noise_plan.s": get("compiler.noise_plan", "self_s"),
        "simulator.trajectory.s": get("simulator.trajectory", "self_s"),
        "simulator.channel.calls": get("simulator.channel", "calls"),
        "simulator.channel.s": get("simulator.channel", "self_s"),
        "simulator.sampling.s": get("simulator.sampling", "self_s"),
        "counts.estimate_s": get("counts.estimate", "self_s"),
        "store.write.calls": get("store.write", "calls"),
        "store.write.s": get("store.write", "self_s"),
        "store.write.bytes": get("store.write", "amount"),
        "store.read.calls": get("store.read", "calls"),
        "store.read.s": get("store.read", "self_s"),
        "fleet.route.calls": get("fleet.route", "calls"),
        "fleet.route.s": get("fleet.route", "self_s"),
        "fleet.jobstore.s": get("fleet.jobstore", "self_s"),
        "fleet.queue_wait_p50_s": extras.get("queue_wait_p50_s", 0.0),
        "fleet.worker_busy_frac": (
            worker_busy / (workers * drain_wall) if drain_wall else 0.0
        ),
        "fleet.deferrals": extras.get("deferrals", 0.0),
        "faults.retries": counter_deltas.get("retry.attempts", 0.0) / passes,
        "bench.trace_overhead": (
            float(np.median(traced_walls) / np.median(plain_walls))
            if plain_walls else 0.0
        ),
        "bench.coverage": covered_seconds(spans, windows) / sum(traced_walls),
    }
    for cls in KERNEL_CLASSES:
        for kind in ("calls", "bytes"):
            name = f"kernel.{cls}.{kind}"
            out[name] = counter_deltas.get(name, 0.0) / passes
    for family in CACHE_FAMILIES:
        for kind in ("hits", "misses"):
            name = f"cache.{family}.{kind}"
            out[name] = counter_deltas.get(name, 0.0) / passes
    missing = set(PER_LAYER_UNITS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(out[name]) for name in PER_LAYER_UNITS}
