import numpy as np
import pytest

from repro.experiments.config import default_iterations, is_full_scale
from repro.experiments.metrics import (
    expectation_ratio,
    improvement_rel_baseline,
    progress_fraction,
    tail_energy,
)
from repro.experiments.registry import app_names, get_app
from repro.experiments.runner import geomean_improvements
from repro.experiments.schemes import SCHEME_NAMES, build_vqe
from repro.noise.noise_model import NoiseModel
from repro.runtime import ExperimentPlan, run_plan
from repro.vqa.objective import EnergyObjective
from repro.vqa.result import IterationRecord, VQEResult


def _compare(app_name, schemes, iterations, seed):
    plan = ExperimentPlan.single(app_name, schemes, iterations, seed=seed)
    return run_plan(plan).comparison(app_name)


def _fake_result(energies):
    result = VQEResult()
    for i, e in enumerate(energies):
        result.records.append(
            IterationRecord(i, e, e, e, None, None, None, 0, True, True)
        )
    return result


def test_registry_matches_table1():
    assert app_names() == [f"App{i}" for i in range(1, 7)]
    app2 = get_app("App2")
    assert (app2.ansatz_kind, app2.reps, app2.machine) == ("RA", 4, "guadalupe")
    app1 = get_app("App1")
    assert (app1.ansatz_kind, app1.reps, app1.machine) == ("SU2", 2, "toronto")
    app5 = get_app("App5")
    assert (app5.reps, app5.machine) == (8, "cairo")
    # v1 vs v2 trials of the same machine give different traces
    app3 = get_app("App3")
    t2 = app2.build_trace(100)
    t3 = app3.build_trace(100)
    assert not np.allclose(t2.values, t3.values)


def test_registry_builders():
    app = get_app("App4")
    ansatz = app.build_ansatz()
    assert ansatz.num_qubits == 6
    ham = app.build_hamiltonian()
    assert ham.num_qubits == 6
    assert app.ground_truth_energy() == pytest.approx(-7.2962, abs=1e-3)
    with pytest.raises(KeyError):
        get_app("App9")


def test_progress_fraction():
    assert progress_fraction(0.0, -5.0, -10.0) == pytest.approx(0.5)
    assert progress_fraction(0.0, 5.0, -10.0) == pytest.approx(0.02)  # floored
    with pytest.raises(ValueError):
        progress_fraction(-11.0, -5.0, -10.0)


def test_tail_energy():
    result = _fake_result([0.0, -1.0, -2.0, -3.0, -4.0])
    assert tail_energy(result, tail_fraction=0.4) == pytest.approx(-3.5)


def test_expectation_ratio():
    results = {
        "baseline": _fake_result([-1.0] * 10),
        "better": _fake_result([-2.0] * 10),
        "worse": _fake_result([-0.5] * 10),
    }
    ratios = expectation_ratio(results)
    assert ratios["baseline"] == pytest.approx(1.0)
    assert ratios["better"] == pytest.approx(2.0)
    assert ratios["worse"] == pytest.approx(0.5)
    with pytest.raises(KeyError):
        expectation_ratio(results, baseline="missing")


def test_expectation_ratio_floors_positive_tails():
    results = {
        "baseline": _fake_result([1.0] * 10),  # never descended
        "good": _fake_result([-1.0] * 10),
    }
    ratios = expectation_ratio(results, floor=1e-3)
    assert ratios["good"] == pytest.approx(1000.0)


def test_improvement_rel_baseline():
    results = {
        "baseline": _fake_result([0.0, -5.0, -5.0, -5.0, -5.0, -5.0, -5.0, -5.0, -5.0, -5.0]),
        "double": _fake_result([0.0, -10.0] + [-10.0] * 8),
    }
    ratios = improvement_rel_baseline(results, ground_truth=-10.0)
    assert ratios["double"] == pytest.approx(2.0)


def test_scheme_names_cover_paper_section_6_3():
    for name in (
        "baseline", "qismet", "qismet-conservative", "qismet-aggressive",
        "blocking", "resampling", "2nd-order", "kalman", "only-transients",
        "noise-free",
    ):
        assert name in SCHEME_NAMES


def test_build_vqe_unknown_scheme():
    app = get_app("App1")
    objective = EnergyObjective(app.build_ansatz(), app.build_hamiltonian())
    with pytest.raises(KeyError):
        build_vqe("magic", objective, None)


def test_build_vqe_requires_trace_for_noisy_schemes():
    app = get_app("App1")
    objective = EnergyObjective(app.build_ansatz(), app.build_hamiltonian())
    with pytest.raises(ValueError):
        build_vqe("baseline", objective, None)
    # noise-free works without a trace
    vqe = build_vqe("noise-free", objective, None)
    assert vqe.controller is None


def test_default_iterations_scaling(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert not is_full_scale()
    assert default_iterations(2000) == 400
    assert default_iterations(2000, 123) == 123
    monkeypatch.setenv("REPRO_FULL", "1")
    assert is_full_scale()
    assert default_iterations(2000) == 2000


def test_run_comparison_smoke():
    comp = _compare("App1", ["baseline", "qismet"], iterations=40, seed=5)
    assert set(comp.results) == {"baseline", "qismet"}
    ratios = comp.improvements()
    assert ratios["baseline"] == pytest.approx(1.0)
    assert "qismet" in ratios
    finals = comp.final_energies()
    assert finals["baseline"] < 0
    geo = geomean_improvements([comp])
    assert geo["baseline"] == pytest.approx(1.0)


def test_run_comparison_schemes_share_start():
    comp = _compare("App1", ["baseline", "qismet"], iterations=10, seed=6)
    base = comp.results["baseline"].machine_energies[0]
    qismet = comp.results["qismet"].machine_energies[0]
    # same theta0 and same first-job transient, but independent backend
    # shot-noise streams: first energies agree loosely
    assert base == pytest.approx(qismet, abs=0.5)


def test_seeds_derived_per_scheme_with_shared_spsa_pairing():
    """Regression for the schemes-module contract: backend seeds are
    derived per scheme (independent shot-noise streams) while the SPSA
    perturbation sequence stays shared (paired comparisons)."""
    from repro.noise.noise_model import NoiseModel
    from repro.runtime import RunSpec
    from repro.runtime.execute import run_seed, spsa_seed

    spec_base = RunSpec(app="App1", scheme="baseline", iterations=10, seed=9)
    spec_blocking = RunSpec(app="App1", scheme="blocking", iterations=10, seed=9)
    # per-scheme run seeds differ; the SPSA base seed is scheme-independent
    assert run_seed(spec_base) != run_seed(spec_blocking)
    assert spsa_seed(spec_base) == spsa_seed(spec_blocking)

    app = get_app("App1")
    noise_model = NoiseModel.from_device(app.build_device())
    trace = app.build_trace(length=64, seed=9)
    vqes = {}
    for spec in (spec_base, spec_blocking):
        objective = EnergyObjective(app.build_ansatz(), app.build_hamiltonian())
        vqes[spec.scheme] = build_vqe(
            spec.scheme, objective, trace, noise_model=noise_model,
            seed=run_seed(spec), spsa_seed=spsa_seed(spec),
        )
    base, blocking = vqes["baseline"], vqes["blocking"]
    # identical SPSA perturbation streams (paired comparisons) ...
    assert (
        base.optimizer.rng.bit_generator.state
        == blocking.optimizer.rng.bit_generator.state
    )
    # ... over independent backend shot-noise streams
    assert (
        base.backend.rng.bit_generator.state
        != blocking.backend.rng.bit_generator.state
    )


def test_build_vqe_trust_radius_defaults_preserved():
    """spsa_trust_radius=None must not clobber SecondOrderSPSA's own
    default step bound (regression: a literal trust_radius=None kwarg
    defeats the subclass's setdefault)."""
    app = get_app("App1")
    noise_model = NoiseModel.from_device(app.build_device())
    trace = app.build_trace(length=32, seed=4)

    def build(scheme, **kwargs):
        objective = EnergyObjective(app.build_ansatz(), app.build_hamiltonian())
        return build_vqe(scheme, objective, trace, noise_model=noise_model, **kwargs)

    assert build("2nd-order").optimizer.trust_radius == 0.1
    assert build("2nd-order", spsa_trust_radius=0.3).optimizer.trust_radius == 0.3
    assert build("baseline").optimizer.trust_radius is None
    assert build("baseline", spsa_trust_radius=0.2).optimizer.trust_radius == 0.2


def test_run_comparison_matches_standalone_spec_execution():
    """A scheme's run inside a comparison is bit-identical to executing
    that scheme's spec on its own."""
    from repro.runtime import RunSpec, execute_run

    comp = _compare("App1", ["baseline", "qismet"], iterations=8, seed=11)
    solo = execute_run(
        RunSpec(app="App1", scheme="qismet", iterations=8, seed=11)
    )
    assert solo.result.to_dict() == comp.results["qismet"].to_dict()
