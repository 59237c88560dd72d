"""The benchmark's three workloads, driven from outside the program.

Each workload builds its inputs from the seed only, runs one *pass* at a
time (closed loop: one task after another from this process), and checks
the pass's outputs. A pass returns a :class:`PassResult`; the worker
strings passes together for the measured window. Every class here calls
the program through its public entry points: figure builders,
executors, ``CountsBackend`` and the store/fleet objects they return.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.backends.counts import CountsBackend
from repro.compiler import clear_plan_cache
from repro.experiments.figures import fig13_fleet, fig13_machines, fig17_main_results
from repro.experiments.registry import get_app
from repro.fleet.executor import FleetExecutor
from repro.fleet.store import JobStore
from repro.noise.noise_model import NoiseModel
from repro.operators.grouping import group_commuting_terms, measurement_bases
from repro.operators.measurement_basis import basis_rotation_circuit, diagonal_value
from repro.runtime import SerialExecutor
from repro.utils.rng import derive_seed
from repro.utils.serialization import canonical_json

perf_counter = time.perf_counter

#: VQE iterations per run on both VQE workloads (the same RA-4 compute).
VQE_ITERATIONS = 20
#: Iterations of the set-up warm-up pass (fills caches, touches every path).
WARMUP_ITERATIONS = 2
#: Devices of the fleet workload: two devices, two worker threads.
FLEET_MACHINES = ("toronto", "guadalupe")
#: Jobs in one fig13 grid: 6 machines x (baseline, qismet).
FLEET_JOBS = 12
#: counts_traj: (app, points per pass). Three circuit depths on three
#: device noise models; App6 (RA-8) costs about 4x App1 per estimate.
#: Three App2 points keep the median task inside one cost cluster.
COUNTS_POINTS = (("App1", 1), ("App2", 3), ("App6", 1))
TRAJECTORIES = 512
SHOTS_PER_GROUP = 4096
#: Acceptance bound on max |E_traj - E_dm| / sigma_shot over the points.
TRAJ_SIGMA_BOUND = 5.0
#: Variational bound slack for exact (true) energies.
GROUND_SLACK = 1e-9


@dataclass
class PassResult:
    wall_s: float
    #: Per-task latencies (s): one VQE run, fleet job or energy estimate.
    tasks: List[float]
    circuits: int
    iterations: int
    digest: str
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Workload-specific numbers (qismet_gain, retries, deferrals, ...).
    info: Dict[str, float] = field(default_factory=dict)


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _run_payloads(runs) -> Dict[str, str]:
    """run_id -> canonical result payload (what the store content-hashes)."""
    return {run.run_id: canonical_json(run.result.to_dict()) for run in runs}


def _vqe_checks(runs) -> List[str]:
    """Variational bound and finiteness on every run's energies."""
    failures = []
    for run in runs:
        true = run.result.true_energies
        machine = run.result.machine_energies
        label = f"{run.app_name}/{run.spec.scheme}"
        if not (np.all(np.isfinite(true)) and np.all(np.isfinite(machine))):
            failures.append(f"{label}: non-finite energy")
        elif float(np.min(true)) < run.ground_truth - GROUND_SLACK:
            failures.append(
                f"{label}: true energy {float(np.min(true))!r} below ground "
                f"{run.ground_truth!r}"
            )
    return failures


def _retry_counts(runs) -> Dict[str, float]:
    qismet = [run for run in runs if run.spec.scheme == "qismet"]
    return {
        "qismet_retries": float(sum(r.result.total_retries for r in qismet)),
        "qismet_iterations": float(sum(r.result.iterations for r in qismet)),
    }


class _CapturingExecutor(SerialExecutor):
    """The serial executor, keeping the last batch of results it returned."""

    def __init__(self) -> None:
        self.runs: list = []

    def run(self, specs):
        self.runs = super().run(specs)
        return self.runs


class Workload:
    name = ""
    #: Passes the measured window always contains, whatever ``--seconds``.
    min_passes = 2
    #: Threads that execute tasks (the fleet's device workers).
    workers = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def final_checks(self, passes: List[PassResult]) -> List[str]:
        """Checks made once, outside the timed window."""
        return []

    def close(self) -> None:
        pass


class Fig17Grid(Workload):
    """All six Table-1 apps x six schemes, serial executor, in-memory store."""

    name = "fig17_grid"
    min_passes = 3
    tasks_per_pass = 36

    def setup(self) -> None:
        fig17_main_results(
            seed=self.seed, iterations=WARMUP_ITERATIONS,
            executor=_CapturingExecutor(),
        )

    def run_pass(self) -> PassResult:
        executor = _CapturingExecutor()
        start = perf_counter()
        figure = fig17_main_results(
            seed=self.seed, iterations=VQE_ITERATIONS, executor=executor
        )
        wall = perf_counter() - start
        runs = executor.runs
        failures = _vqe_checks(runs)
        geomean = figure["geomean"]
        if geomean.get("baseline") != 1.0:
            failures.append(f"baseline geomean {geomean.get('baseline')!r} != 1.0")
        if not all(math.isfinite(v) for v in geomean.values()):
            failures.append("non-finite geomean")
        if len(runs) != self.tasks_per_pass:
            failures.append(f"{len(runs)} runs, expected {self.tasks_per_pass}")
        info = {"qismet_gain": float(geomean["qismet"])}
        info.update(_retry_counts(runs))
        return PassResult(
            wall_s=wall,
            tasks=[run.elapsed_s for run in runs],
            circuits=sum(run.result.total_circuits for run in runs),
            iterations=sum(run.result.iterations for run in runs),
            digest=_digest({"figure": figure, "runs": _run_payloads(runs)}),
            attempted=len(runs),
            failures=failures,
            info=info,
        )


class _FleetProbe:
    """Timestamps job transitions and keeps the results a fleet returned.

    Installed for the whole process (traced and untraced passes alike): a
    fleet task's latency is enqueue -> done, which the job store records
    only in simulated ticks.
    """

    def __init__(self) -> None:
        self.enqueued: Dict[str, float] = {}
        self.running: Dict[str, float] = {}
        self.done: Dict[str, float] = {}
        self.results: list = []
        self._lock = threading.Lock()
        self._originals = []

    def _stamp(self, table: Dict[str, float], run_id: str) -> None:
        now = perf_counter()
        with self._lock:
            table.setdefault(run_id, now)

    def install(self) -> None:
        probe = self
        enqueue, running = JobStore.enqueue, JobStore.mark_running
        done, run = JobStore.mark_done, FleetExecutor.run

        def stamped_enqueue(store, spec, *args, **kwargs):
            probe._stamp(probe.enqueued, spec.run_id)
            return enqueue(store, spec, *args, **kwargs)

        def stamped_running(store, run_id, *args, **kwargs):
            probe._stamp(probe.running, run_id)
            return running(store, run_id, *args, **kwargs)

        def stamped_done(store, run_id, *args, **kwargs):
            out = done(store, run_id, *args, **kwargs)
            probe._stamp(probe.done, run_id)
            return out

        def captured_run(executor, specs):
            results = run(executor, specs)
            probe.results.append(results)
            return results

        self._originals = [
            (JobStore, "enqueue", enqueue),
            (JobStore, "mark_running", running),
            (JobStore, "mark_done", done),
            (FleetExecutor, "run", run),
        ]
        JobStore.enqueue = stamped_enqueue
        JobStore.mark_running = stamped_running
        JobStore.mark_done = stamped_done
        FleetExecutor.run = captured_run

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self._originals = []

    def reset(self) -> None:
        self.enqueued, self.running, self.done = {}, {}, {}
        self.results = []

    def queue_waits(self) -> List[float]:
        return [
            self.running[run_id] - self.enqueued[run_id]
            for run_id in self.running if run_id in self.enqueued
        ]


class FleetFig13(Workload):
    """fig13_fleet on two devices: a cold drain, then a warm re-build."""

    name = "fleet_fig13"
    min_passes = 5
    workers = len(FLEET_MACHINES)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.fleet_seed = derive_seed(seed, "perfbench:fleet")
        self.probe = _FleetProbe()
        self.probe.install()
        self._passes = 0
        #: Every pass's probe data, for the traced per-layer metrics.
        self.queue_waits: List[List[float]] = []

    def _build(self, db_path: str, iterations: int) -> Dict:
        return fig13_fleet(
            seed=self.seed, iterations=iterations, db_path=db_path,
            machines=list(FLEET_MACHINES), fleet_seed=self.fleet_seed,
        )

    def setup(self) -> None:
        db = os.path.join(self.workdir, "warmup.db")
        self._build(db, WARMUP_ITERATIONS)
        self._build(db, WARMUP_ITERATIONS)
        self.probe.reset()

    def run_pass(self) -> PassResult:
        self._passes += 1
        db = os.path.join(self.workdir, f"pass{self._passes}.db")
        self.probe.reset()
        start = perf_counter()
        cold = self._build(db, VQE_ITERATIONS)
        cold_runs = self.probe.results[-1]
        warm = self._build(db, VQE_ITERATIONS)
        wall = perf_counter() - start
        warm_runs = self.probe.results[-1]
        self.queue_waits.append(self.probe.queue_waits())
        tasks = [
            self.probe.done[run.run_id] - self.probe.enqueued[run.run_id]
            for run in cold_runs if run.run_id in self.probe.done
        ]
        failures = _vqe_checks(cold_runs)
        for label, build in (("cold", cold), ("warm", warm)):
            counts = build["fleet"]["job_counts"]
            if counts.get("done") != FLEET_JOBS or counts.get("failed"):
                failures.append(f"{label} drain job counts {counts}")
        if len(tasks) != FLEET_JOBS:
            failures.append(f"cold drain completed {len(tasks)} of {FLEET_JOBS} jobs")
        if any(not run.from_cache for run in warm_runs):
            failures.append("warm build re-executed jobs")
        cold_payloads = _run_payloads(cold_runs)
        if _run_payloads(warm_runs) != cold_payloads:
            failures.append("cold and warm payloads differ")
        if canonical_json(cold["machines"]) != canonical_json(warm["machines"]):
            failures.append("cold and warm figure rows differ")
        self._remove_db(db)
        info = {
            "qismet_gain": float(cold["geomean_improvement"]),
            "deferrals": float(
                cold["fleet"]["total_deferrals"] + warm["fleet"]["total_deferrals"]
            ),
            "drain_jobs": float(len(tasks)),
        }
        info.update(_retry_counts(cold_runs))
        return PassResult(
            wall_s=wall,
            tasks=tasks,
            circuits=sum(run.result.total_circuits for run in cold_runs),
            iterations=sum(run.result.iterations for run in cold_runs),
            digest=_digest({"figure": cold["machines"], "runs": cold_payloads}),
            attempted=len(cold_runs) + len(warm_runs),
            failures=failures,
            info=info,
        )

    def _remove_db(self, db: str) -> None:
        for suffix in ("", "-journal", "-wal", "-shm"):
            if os.path.exists(db + suffix):
                os.remove(db + suffix)

    def final_checks(self, passes: List[PassResult]) -> List[str]:
        """Both fleet builds must equal a serial build of the same specs."""
        executor = _CapturingExecutor()
        serial = fig13_machines(
            seed=self.seed, iterations=VQE_ITERATIONS, executor=executor
        )
        reference = _digest({
            "figure": serial["machines"], "runs": _run_payloads(executor.runs),
        })
        if any(p.digest != reference for p in passes):
            return ["fleet payloads differ from the serial build"]
        return []

    def close(self) -> None:
        self.probe.uninstall()


class CountsTraj(Workload):
    """Shot-level trajectory energy estimates on three device noise models."""

    name = "counts_traj"
    min_passes = 5

    def setup(self) -> None:
        self.apps = {}
        for index, (app_name, count) in enumerate(COUNTS_POINTS):
            app = get_app(app_name)
            device = app.build_device()
            ansatz = app.build_ansatz()
            hamiltonian = app.build_hamiltonian()
            rng = np.random.default_rng([self.seed, index])
            points = rng.uniform(-np.pi, np.pi, (count + 1, ansatz.num_parameters))
            self.apps[app_name] = {
                "device": device,
                "noise": NoiseModel.from_device(device),
                "ansatz": ansatz,
                "hamiltonian": hamiltonian,
                "ground": app.ground_truth_energy(),
                # The last point only warms up the process.
                "points": points[:count],
                "warmup": points[count],
                "groups": [
                    group for group in group_commuting_terms(hamiltonian)
                    if any(not term.pauli.is_identity for term in group)
                ],
            }
        self.tasks = [
            (app_name, k, derive_seed(self.seed, f"perfbench:counts:{app_name}:{k}"))
            for app_name, count in COUNTS_POINTS for k in range(count)
        ]
        first = self.apps[COUNTS_POINTS[0][0]]
        self._estimate(first, first["warmup"], seed=0)

    def _backend(self, app: Dict, seed: int, engine: str) -> CountsBackend:
        return CountsBackend(
            noise_model=app["noise"], device=app["device"], engine=engine,
            trajectories=TRAJECTORIES, seed=seed,
        )

    def _estimate(self, app: Dict, theta: np.ndarray, seed: int) -> float:
        circuit = app["ansatz"].bind(theta)
        backend = self._backend(app, seed, "traj")
        return backend.estimate_energy(
            circuit, app["hamiltonian"], shots_per_group=SHOTS_PER_GROUP
        )

    def run_pass(self) -> PassResult:
        # Each pass lowers and compiles every point afresh, as a new
        # binding would: the shared plan cache would otherwise serve the
        # repeated points from the previous pass.
        start = perf_counter()
        clear_plan_cache()
        energies, tasks, circuits = [], [], 0
        for app_name, k, seed in self.tasks:
            app = self.apps[app_name]
            t0 = perf_counter()
            energies.append(self._estimate(app, app["points"][k], seed))
            tasks.append(perf_counter() - t0)
            circuits += len(app["groups"])
        wall = perf_counter() - start
        failures = [] if all(map(math.isfinite, energies)) else ["non-finite energy"]
        self.energies = energies
        return PassResult(
            wall_s=wall, tasks=tasks, circuits=circuits, iterations=0,
            digest=_digest(energies), attempted=len(tasks), failures=failures,
        )

    def exact_reference(self, app: Dict, theta: np.ndarray):
        """(E_dm, sigma_shot) of one point from exact dm distributions."""
        circuit = app["ansatz"].bind(theta)
        backend = self._backend(app, 0, "dm")
        energy = sum(
            term.coefficient
            for group in group_commuting_terms(app["hamiltonian"])
            for term in group if term.pauli.is_identity
        )
        variance = 0.0
        n = circuit.num_qubits
        for group in app["groups"]:
            terms = [term for term in group if not term.pauli.is_identity]
            measured = circuit.copy()
            measured.compose(basis_rotation_circuit(measurement_bases(terms)))
            probs = backend.probabilities(measured)
            values = np.array([
                sum(
                    term.coefficient * diagonal_value(term.pauli, format(i, f"0{n}b"))
                    for term in terms
                )
                for i in range(2**n)
            ])
            mean = float(probs @ values)
            energy += mean
            variance += max(float(probs @ values**2) - mean**2, 0.0) / SHOTS_PER_GROUP
        return energy, math.sqrt(variance)

    def deviation_sigma(self) -> float:
        worst = 0.0
        for (app_name, k, _seed), energy in zip(self.tasks, self.energies):
            app = self.apps[app_name]
            exact, sigma = self.exact_reference(app, app["points"][k])
            worst = max(worst, abs(energy - exact) / sigma)
        return worst

    def final_checks(self, passes: List[PassResult]) -> List[str]:
        self.traj_dev_sigma = self.deviation_sigma()
        if not self.traj_dev_sigma <= TRAJ_SIGMA_BOUND:
            return [
                f"traj_dev_sigma {self.traj_dev_sigma:.3f} exceeds "
                f"{TRAJ_SIGMA_BOUND}"
            ]
        return []


WORKLOADS = {cls.name: cls for cls in (Fig17Grid, FleetFig13, CountsTraj)}


def make_workdir(root: str) -> str:
    path = os.path.join(root, f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: Optional[str]) -> None:
    if path and os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
