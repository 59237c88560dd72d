"""Per-figure data builders.

One function per paper figure; each returns a plain dict of series and
summary rows so the benchmark harness (and tests) can print/assert the
same quantities the paper reports. All builders are deterministic given a
seed and scale with ``REPRO_FULL``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ansatz.real_amplitudes import RealAmplitudes
from repro.circuits.library import layered_cx_circuit
from repro.experiments.config import default_iterations
from repro.experiments.metrics import tail_energy
from repro.experiments.registry import APPLICATIONS, get_app, machine_app
from repro.experiments.runner import geomean_improvements
from repro.experiments.schemes import build_vqe
from repro.noise.noise_model import NoiseModel
from repro.noise.transient.t1_model import T1FluctuationModel, t1_to_error_fraction
from repro.noise.transient.trace_generator import profile_for_machine
from repro.runtime import ExperimentPlan, PlanResult, RunSpec, executor_for
from repro.store.query import RunQuery
from repro.utils.rng import derive_seed
from repro.utils.stats import relative_variation
from repro.vqa.objective import EnergyObjective


# ---------------------------------------------------------------------------
# Fig. 3 — device-level T1 transients over 65 hours
# ---------------------------------------------------------------------------

def fig3_t1_transients(hours: float = 65.0, seed: int = 9) -> Dict:
    """T1-vs-time series with TLS dips (the circled outliers)."""
    model = T1FluctuationModel()
    times, t1 = model.sample_hours(hours, seed=seed)
    return {
        "times_hours": times,
        "t1_us": t1,
        "baseline_us": model.baseline_us,
        "mean_t1_us": float(np.mean(t1)),
        "min_t1_us": float(np.min(t1)),
        "outliers_below_half_baseline": model.outlier_count(t1, 0.5),
    }


# ---------------------------------------------------------------------------
# Fig. 4 — circuit-level fidelity variation over 45 hours
# ---------------------------------------------------------------------------

def _circuit_fidelity_series(
    num_qubits: int,
    cx_layers: int,
    hours: int,
    seed: int,
    two_qubit_error: float = 0.007,
    single_qubit_error: float = 0.0004,
    readout_error: float = 0.015,
) -> Dict:
    """Hourly-batch mean fidelity of one circuit under transient T1 dips.

    Fidelity = static survival probability (gates + readout) modulated by
    the excess decay the current T1 level implies; deeper circuits spend
    longer decohering, so the same T1 dip costs them disproportionately
    (paper Section 3.2).
    """
    circuit = layered_cx_circuit(num_qubits, cx_layers, seed=seed)
    noise = NoiseModel(
        single_qubit_error=single_qubit_error, two_qubit_error=two_qubit_error
    )
    static_fidelity = noise.survival_factor(circuit) * (
        1.0 - readout_error
    ) ** num_qubits

    model = T1FluctuationModel(baseline_us=70.0)
    _, t1 = model.sample_hours(hours, seed=seed)
    # Circuit duration grows with CX depth (~300 ns per layer).
    duration_us = 0.3 * cx_layers
    excess = t1_to_error_fraction(t1, duration_us, model.baseline_us)
    hourly = static_fidelity * np.clip(1.0 - excess, 0.0, 1.0)
    # Average each hour's samples into one batch point (the paper's
    # 140-circuit batches).
    per_hour = max(1, len(hourly) // hours)
    batches = np.array(
        [np.mean(hourly[i * per_hour : (i + 1) * per_hour]) for i in range(hours)]
    )
    return {
        "batch_fidelity": batches,
        "mean_fidelity": float(np.mean(batches)),
        "variation": relative_variation(batches),
        "static_fidelity": float(static_fidelity),
    }


def fig4_circuit_fidelity(hours: int = 45, seed: int = 10) -> Dict:
    """Shallow (4q/6CX) vs deep (8q/50CX) circuit fidelity variation."""
    shallow = _circuit_fidelity_series(4, 6, hours, seed)
    deep = _circuit_fidelity_series(8, 50, hours, seed + 1)
    return {"shallow": shallow, "deep": deep}


# ---------------------------------------------------------------------------
# Fig. 5 — severe transient impact on a long VQA run
# ---------------------------------------------------------------------------

def fig5_vqa_transient_impact(
    seed: int = 23, iterations: Optional[int] = None, executor=None
) -> Dict:
    """Baseline VQA on a turbulent (Jakarta-like) trace: spikes and
    stagnation (expectation at iteration ~20 % vs the end)."""
    iterations = iterations or default_iterations(500, 250)
    app = get_app("App6")
    plan = ExperimentPlan.single(
        app, ["baseline"], iterations, seed=seed, trace_scale=1.5
    )
    comp = (executor or executor_for()).run_plan(plan).comparison(app.name)
    result = comp.results["baseline"]
    energies = result.machine_energies
    early_index = max(1, int(0.2 * len(energies)))
    spike_threshold = np.median(energies) + 3.0 * np.std(
        energies[: early_index]
    )
    spikes = int(np.sum(energies > spike_threshold))
    return {
        "machine_energies": energies,
        "true_energies": result.true_energies,
        "energy_at_20pct": float(energies[early_index]),
        "energy_final": float(energies[-1]),
        "num_upward_spikes": spikes,
    }


# ---------------------------------------------------------------------------
# Fig. 10 — sweeping the transient magnitude (0 - 50 %)
# ---------------------------------------------------------------------------

def fig10_transient_sweep(
    fractions: Sequence[float] = (0.0, 0.025, 0.125, 0.20, 0.25, 0.50),
    seed: int = 5,
    iterations: Optional[int] = None,
    executor=None,
) -> Dict:
    """Baseline VQA at increasing transient magnitude; accuracy degrades
    monotonically (up to run noise).

    Expanded into one spec per magnitude and executed in a single
    fan-out: the sweep parallelizes across cores under a parallel
    executor.
    """
    iterations = iterations or default_iterations(2000, 400)
    app = get_app("App1")
    specs: List[RunSpec] = []
    for fraction in fractions:
        if fraction == 0.0:
            specs.append(
                RunSpec(app=app, scheme="static-only", iterations=iterations, seed=seed)
            )
        else:
            # Normalize so the profile's typical spike equals the requested
            # fraction of the estimation magnitude.
            scale = fraction / profile_for_machine(app.machine).spike_magnitude
            specs.append(
                RunSpec(
                    app=app, scheme="baseline", iterations=iterations,
                    seed=seed, trace_scale=scale,
                )
            )
    runs = (executor or executor_for()).run(specs)
    finals = [tail_energy(run.result) for run in runs]
    return {"fractions": list(fractions), "final_energies": finals}


# ---------------------------------------------------------------------------
# Figs. 11/12/13 — machine runs: QISMET vs baseline
# ---------------------------------------------------------------------------

# Per-machine iteration counts from the paper's Fig. 13 secondary axis.
MACHINE_ITERATIONS = {
    "guadalupe": 270,
    "toronto": 450,
    "sydney": 350,
    "casablanca": 220,
    "jakarta": 320,
    "mumbai": 330,
}


def _machine_iterations(machine: str, iterations: Optional[int]) -> int:
    paper_iterations = MACHINE_ITERATIONS.get(machine.lower(), 300)
    return iterations or default_iterations(paper_iterations, paper_iterations)


def _machine_row(machine: str, iterations: int, comp) -> Dict:
    ratio = comp.improvements()["qismet"]
    return {
        "machine": machine.lower(),
        "iterations": iterations,
        "baseline_energies": comp.results["baseline"].machine_energies,
        "qismet_energies": comp.results["qismet"].machine_energies,
        "improvement": ratio,
        "improvement_pct": (ratio - 1.0) * 100.0,
        "qismet_retries": comp.results["qismet"].total_retries,
    }


def machine_run(
    machine: str, seed: int = 17, iterations: Optional[int] = None, executor=None
) -> Dict:
    """Synchronous baseline-vs-QISMET comparison on one machine (Figs. 11/12)."""
    iterations = _machine_iterations(machine, iterations)
    app = machine_app(machine)
    plan = ExperimentPlan.single(app, ["baseline", "qismet"], iterations, seed=seed)
    comp = (executor or executor_for()).run_plan(plan).comparison(app.name)
    return _machine_row(machine, iterations, comp)


def _machine_specs(seed: int, its: Dict[str, int]) -> List[RunSpec]:
    """The Fig. 13 grid: 6 machines x (baseline, qismet).

    Each machine runs its own iteration count, so the grid is not one
    cartesian :class:`ExperimentPlan`; it is still handed to a single
    executor call so a parallel executor or the fleet fans the whole
    figure out at once.
    """
    return [
        RunSpec(app=machine_app(m), scheme=scheme, iterations=its[m], seed=seed)
        for m in MACHINE_ITERATIONS
        for scheme in ("baseline", "qismet")
    ]


def _machine_rows(outcome: PlanResult, its: Dict[str, int]) -> Dict:
    rows = {
        m: _machine_row(m, its[m], outcome.comparison(f"machine:{m}"))
        for m in MACHINE_ITERATIONS
    }
    ratios = [row["improvement"] for row in rows.values()]
    geomean = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-6)))))
    return {"machines": rows, "geomean_improvement": geomean}


def fig13_machines(
    seed: int = 17, iterations: Optional[int] = None, executor=None
) -> Dict:
    """QISMET improvement across six IBMQ machines + geometric mean."""
    its = {m: _machine_iterations(m, iterations) for m in MACHINE_ITERATIONS}
    runs = (executor or executor_for()).run(_machine_specs(seed, its))
    return _machine_rows(PlanResult(runs=runs), its)


def fig13_fleet(
    seed: int = 17,
    iterations: Optional[int] = None,
    db_path: Optional[str] = None,
    machines: Optional[Sequence[str]] = None,
    fleet_seed: int = 2023,
) -> Dict:
    """Fig. 13 rewired through the fleet scheduling service.

    The same 6-machine x 2-scheme grid as :func:`fig13_machines`, but
    submitted as jobs to ``repro.fleet``: the transient-aware scheduler
    routes each run across the simulated IBMQ fleet (deferring devices
    inside predicted transient windows, load-balancing otherwise) while
    the per-run numbers stay bit-identical to the serial build. The
    returned dict adds the scheduler's telemetry — per-device
    utilization, deferrals and throughput — next to the paper's
    improvement rows.
    """
    from repro.fleet import FleetExecutor

    its = {m: _machine_iterations(m, iterations) for m in MACHINE_ITERATIONS}
    specs = _machine_specs(seed, its)
    with FleetExecutor(
        machines=machines, db_path=db_path, seed=fleet_seed
    ) as executor:
        outcome = PlanResult(runs=executor.run(specs))
        stored = executor.results.query_runs(
            RunQuery(run_ids=[spec.run_id for spec in specs])
        )
        telemetry = executor.telemetry.snapshot()
        job_counts = executor.store.counts()
    stored_per_device: Dict[str, int] = {}
    for run in stored:
        device = run.device or "-"
        stored_per_device[device] = stored_per_device.get(device, 0) + 1
    return {
        **_machine_rows(outcome, its),
        "fleet": {
            "devices_used": telemetry["devices_used"],
            "total_deferrals": telemetry["total_deferrals"],
            "throughput_jobs_per_tick": telemetry["throughput_jobs_per_tick"],
            "per_device": {
                name: counters
                for name, counters in telemetry["devices"].items()
            },
            "job_counts": job_counts,
            "stored_runs_per_device": stored_per_device,
        },
    }


# ---------------------------------------------------------------------------
# Figs. 14/17 — scheme comparisons on the Table 1 applications
# ---------------------------------------------------------------------------

FIG17_SCHEMES = ("baseline", "qismet", "blocking", "resampling", "2nd-order", "kalman")


def fig14_spsa_schemes(
    seed: int = 13, iterations: Optional[int] = None, executor=None
) -> Dict:
    """App2, SPSA optimization schemes vs QISMET (paper Fig. 14)."""
    iterations = iterations or default_iterations(2000, 500)
    app = get_app("App2")
    plan = ExperimentPlan.single(
        app, ("baseline", "qismet", "blocking", "resampling", "2nd-order"),
        iterations, seed=seed,
    )
    comp = (executor or executor_for()).run_plan(plan).comparison(app.name)
    return {
        "iterations": iterations,
        "improvements": comp.improvements(),
        "final_energies": comp.final_energies(),
        "series": {name: r.true_energies for name, r in comp.results.items()},
    }


def fig17_main_results(
    seed: int = 13,
    iterations: Optional[int] = None,
    apps: Sequence[str] = tuple(sorted(APPLICATIONS)),
    schemes: Sequence[str] = FIG17_SCHEMES,
    executor=None,
) -> Dict:
    """The headline table: improvements per app per scheme + geomeans.

    Declared as one ``ExperimentPlan`` (apps x schemes) and executed in a
    single fan-out, so ``REPRO_EXECUTOR=parallel`` parallelizes the whole
    grid and ``REPRO_STORE`` makes repeated builds near-instant.
    """
    iterations = iterations or default_iterations(2000, 400)
    plan = ExperimentPlan(
        apps=tuple(apps), schemes=tuple(schemes),
        iterations=iterations, seeds=(seed,), name="fig17",
    )
    comparisons = (executor or executor_for()).run_plan(plan).comparisons()
    return {
        "iterations": iterations,
        "per_app": {
            app_name: comp.improvements()
            for (app_name, _seed, _scale), comp in comparisons.items()
        },
        "geomean": geomean_improvements(list(comparisons.values())),
    }


# ---------------------------------------------------------------------------
# Fig. 15 — the only-transients alternative (job-budgeted)
# ---------------------------------------------------------------------------

def fig15_only_transients(
    seed: int = 19,
    iterations: Optional[int] = None,
    skip_budgets: Sequence[float] = (0.01, 0.10, 0.20, 0.30, 0.50),
) -> Dict:
    """Magnitude-threshold skipping at various allowed skip fractions.

    Run under a fixed *job* budget: skipped work costs machine time, which
    is exactly why indiscriminate skipping delays convergence (Sec. 5.3).
    """
    iterations = iterations or default_iterations(2000, 400)
    app = get_app("App1")
    hamiltonian = app.build_hamiltonian()
    noise_model = NoiseModel.from_device(app.build_device())
    trace = app.build_trace(length=6 * iterations + 64, seed=seed)
    theta0 = app.build_ansatz().initial_point(
        seed=derive_seed(seed, "theta0:fig15")
    )
    job_budget = 3 * iterations

    rows: Dict[str, float] = {}
    base_objective = EnergyObjective(app.build_ansatz(), hamiltonian)
    baseline = build_vqe(
        "baseline", base_objective, trace, noise_model=noise_model,
        seed=derive_seed(seed, "fig15"), iterations_hint=iterations,
    )
    base_result = baseline.run(iterations, theta0=np.array(theta0), max_jobs=job_budget)
    rows["baseline"] = tail_energy(base_result)

    for budget in skip_budgets:
        objective = EnergyObjective(app.build_ansatz(), hamiltonian)
        vqe = build_vqe(
            "only-transients", objective, trace, noise_model=noise_model,
            seed=derive_seed(seed, "fig15"), iterations_hint=iterations,
            only_transients_skip_fraction=budget,
        )
        result = vqe.run(iterations, theta0=np.array(theta0), max_jobs=job_budget)
        label = f"{int(round((1 - budget) * 100))}p"
        rows[label] = tail_energy(result)
    return {"final_energies": rows, "job_budget": job_budget}


# ---------------------------------------------------------------------------
# Fig. 16 — Kalman filtering comparison
# ---------------------------------------------------------------------------

def fig16_kalman(
    seed: int = 31,
    iterations: Optional[int] = None,
    mv_values: Sequence[float] = (0.01, 0.1),
    t_values: Sequence[float] = (0.9, 0.99, 1.0),
    executor=None,
) -> Dict:
    """Kalman hyper-parameter grid vs baseline and QISMET on App6."""
    iterations = iterations or default_iterations(500, 300)
    app = get_app("App6")
    executor = executor or executor_for()
    plan = ExperimentPlan.single(app, ["baseline", "qismet"], iterations, seed=seed)
    comp = executor.run_plan(plan).comparison(app.name)
    rows = {
        "baseline": tail_energy(comp.results["baseline"]),
        "qismet": tail_energy(comp.results["qismet"]),
    }
    ratios = {"baseline": 1.0, "qismet": comp.improvements()["qismet"]}

    # The hyper-parameter grid is a pure overrides sweep: one spec per
    # (MV, T) cell, executed in a single fan-out.
    base_tail = min(-1e-3, rows["baseline"])
    grid = [(mv, t) for mv in mv_values for t in t_values]
    grid_specs = [
        RunSpec(
            app=app, scheme="kalman", iterations=iterations, seed=seed,
            overrides={
                "kalman_transition": t, "kalman_measurement_variance": mv,
            },
        )
        for mv, t in grid
    ]
    for (mv, t), run in zip(grid, executor.run(grid_specs)):
        label = f"kalman(MV={mv},T={t})"
        rows[label] = tail_energy(run.result)
        ratios[label] = min(-1e-3, rows[label]) / base_tail
    best_kalman = max(
        (v for k, v in ratios.items() if k.startswith("kalman")), default=0.0
    )
    return {
        "final_energies": rows,
        "improvements": ratios,
        "best_kalman_improvement": best_kalman,
        "qismet_improvement": ratios["qismet"],
    }


# ---------------------------------------------------------------------------
# Fig. 18 — H2 dissociation curve (multi-VQA, transient-only noise)
# ---------------------------------------------------------------------------

def fig18_h2_curve(
    seed: int = 41,
    iterations: Optional[int] = None,
    bond_lengths: Optional[Sequence[float]] = None,
) -> Dict:
    """Potential energy of H2 vs bond length: noise-free, baseline, QISMET.

    Mirrors the paper's setup: transient noise only (no static component);
    one independent VQE per bond length; QISMET should track the
    noise-free bell shape while the baseline deviates.
    """
    from repro.chemistry.h2 import dissociation_bond_lengths
    from repro.noise.transient.trace_generator import machine_trace
    from repro.vqa.multi_vqe import DissociationCurveRunner

    iterations = iterations or default_iterations(600, 200)
    if bond_lengths is None:
        bond_lengths = dissociation_bond_lengths(0.4, 2.0, 10)
        if iterations < 400:  # reduced scale: fewer geometries too
            bond_lengths = dissociation_bond_lengths(0.4, 2.0, 6)

    no_noise = NoiseModel.ideal()
    curves: Dict[str, List[float]] = {}
    for scheme in ("noise-free", "baseline", "qismet"):
        def factory(problem, objective, run_seed, _scheme=scheme):
            trace = machine_trace(
                "guadalupe", 5 * iterations + 64,
                derive_seed(seed, f"fig18:{run_seed}"),
            )
            return build_vqe(
                _scheme,
                objective,
                trace=None if _scheme == "noise-free" else trace,
                noise_model=no_noise,  # paper: transient noise only
                seed=derive_seed(seed, f"fig18:{_scheme}:{run_seed}"),
                iterations_hint=iterations,
            )

        runner = DissociationCurveRunner(
            vqe_factory=factory,
            ansatz_factory=lambda nq: RealAmplitudes(nq, reps=2),
            iterations=iterations,
        )
        points = runner.run(bond_lengths, seed=seed)
        curves[scheme] = [p.estimated_energy for p in points]
        fci = [p.fci_energy for p in points]

    def rms_vs_reference(values: Sequence[float], ref: Sequence[float]) -> float:
        return float(np.sqrt(np.mean((np.array(values) - np.array(ref)) ** 2)))

    reference = curves["noise-free"]
    return {
        "bond_lengths": list(map(float, bond_lengths)),
        "fci": fci,
        "curves": curves,
        "rms_error": {
            scheme: rms_vs_reference(values, reference)
            for scheme, values in curves.items()
        },
    }


# ---------------------------------------------------------------------------
# Fig. 19 — sweeping the QISMET error threshold (job-budgeted)
# ---------------------------------------------------------------------------

def fig19_threshold_sweep(
    seed: int = 37,
    iterations: Optional[int] = None,
    num_seeds: int = 2,
    executor=None,
) -> Dict:
    """Conservative (99p) / best (90p) / aggressive (75p) QISMET under low
    and high transient noise.

    Declared as one plan sweeping ``trace_scales`` x ``num_seeds`` seeds
    so both noise regimes execute in a single fan-out; per-regime numbers
    are seed-geomeans, which tames the single-run variance of the
    reduced-scale configuration.
    """
    iterations = iterations or default_iterations(1800, 400)
    plan = ExperimentPlan(
        apps=("App2",),
        schemes=("baseline", "qismet", "qismet-conservative", "qismet-aggressive"),
        iterations=iterations,
        seeds=tuple(seed + offset for offset in range(num_seeds)),
        trace_scales=(0.5, 2.0),
        name="fig19",
    )
    outcome = (executor or executor_for()).run_plan(plan)
    comparisons = outcome.comparisons()
    return {
        label: geomean_improvements(
            [comp for (_, _, scale_), comp in comparisons.items() if scale_ == scale]
        )
        for label, scale in (("low", 0.5), ("high", 2.0))
    }
