"""Executors: serial/parallel equivalence, disk caching, env selection.

The headline guarantee: because every RunSpec is fully seed-determined,
the executor choice changes wall-clock time only — per-run results are
bit-equal after serialization across serial, process-pool and cached
execution.
"""

from typing import List, Sequence

import pytest

from repro.runtime import (
    CachedExecutor,
    ExperimentPlan,
    ParallelExecutor,
    PlanResult,
    RunResult,
    RunSpec,
    SerialExecutor,
    execute_run,
    executor_for,
)
from repro.runtime.executors import BaseExecutor


class CountingExecutor(BaseExecutor):
    """Serial executor that counts how many runs it actually executed."""

    def __init__(self):
        self.executed = 0

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        specs = list(specs)
        self.executed += len(specs)
        return [execute_run(spec) for spec in specs]


# The acceptance-scale plan: 2 apps x 3 schemes x 2 seeds = 12 runs.
PLAN = ExperimentPlan(
    apps=("App1", "App2"),
    schemes=("baseline", "qismet", "noise-free"),
    iterations=6,
    seeds=(5, 7),
)


@pytest.fixture(scope="module")
def serial_outcome() -> PlanResult:
    return SerialExecutor().run_plan(PLAN)


def _result_dicts(outcome: PlanResult):
    return [run.to_dict()["result"] for run in outcome]


def test_serial_executes_plan(serial_outcome):
    assert len(serial_outcome) == 12
    assert len(serial_outcome.by_run_id) == 12
    assert serial_outcome.total_elapsed_s > 0
    # 4 comparison cells (2 apps x 2 seeds), 3 schemes each
    comps = serial_outcome.comparisons()
    assert len(comps) == 4
    assert all(set(c.results) == set(PLAN.schemes) for c in comps.values())
    geo = serial_outcome.geomean_improvements()
    assert geo["baseline"] == pytest.approx(1.0)
    assert set(geo) == set(PLAN.schemes)


def test_parallel_matches_serial_bit_equal(serial_outcome):
    parallel = ParallelExecutor(max_workers=4).run_plan(PLAN)
    assert _result_dicts(parallel) == _result_dicts(serial_outcome)
    assert [r.run_id for r in parallel] == [r.run_id for r in serial_outcome]


def test_cached_executor_skips_reexecution(tmp_path, serial_outcome):
    counting = CountingExecutor()
    cached = CachedExecutor(tmp_path / "cache", inner=counting)

    first = cached.run_plan(PLAN)
    assert counting.executed == 12
    assert (cached.hits, cached.misses) == (0, 12)
    assert first.cache_hits == 0
    assert _result_dicts(first) == _result_dicts(serial_outcome)

    second = cached.run_plan(PLAN)
    assert counting.executed == 12  # nothing re-executed
    assert (cached.hits, cached.misses) == (12, 12)
    assert second.cache_hits == 12
    # cache round-trip is lossless: identical results and metrics
    assert _result_dicts(second) == _result_dicts(serial_outcome)
    for fresh, warm in zip(serial_outcome.comparisons().values(),
                           second.comparisons().values()):
        assert fresh.improvements() == warm.improvements()
        assert fresh.final_energies() == warm.final_energies()


def test_cached_executor_partial_miss(tmp_path):
    counting = CountingExecutor()
    cached = CachedExecutor(tmp_path / "cache", inner=counting)
    specs = PLAN.expand()
    cached.run(specs[:4])
    assert counting.executed == 4
    out = cached.run(specs)  # 4 warm, 8 cold
    assert counting.executed == 12
    assert [r.run_id for r in out] == [s.run_id for s in specs]
    assert [r.from_cache for r in out] == [True] * 4 + [False] * 8


def test_cached_executor_rejects_corrupt_entries(tmp_path):
    cached = CachedExecutor(tmp_path / "cache")
    spec = PLAN.expand()[0]
    run = cached.run_one(spec)
    # Corrupt the stored payload behind the content address: the store
    # notices the hash mismatch, treats it as a miss and heals the entry.
    conn = cached.store._conn
    conn.execute(
        "UPDATE blobs SET data = ? WHERE hash = "
        "(SELECT payload_hash FROM runs WHERE run_id = ?)",
        ("{not json", spec.run_id),
    )
    conn.commit()
    again = cached.run_one(spec)
    assert not again.from_cache
    assert again.to_dict()["result"] == run.to_dict()["result"]
    # ... and the heal sticks: next lookup is a clean hit again.
    healed = cached.run_one(spec)
    assert healed.from_cache


def test_cached_executor_shares_existing_store(tmp_path):
    from repro.store import ExperimentStore

    with ExperimentStore(tmp_path / "store.sqlite") as store:
        counting = CountingExecutor()
        cached = CachedExecutor(store, inner=counting)
        spec = PLAN.expand()[0]
        cached.run_one(spec)
        assert counting.executed == 1
        assert spec.run_id in store
        # A second executor over the same store sees the hit.
        warm = CachedExecutor(store, inner=counting)
        assert warm.run_one(spec).from_cache
        assert counting.executed == 1


def test_executor_for_resolution(monkeypatch, tmp_path):
    from repro.store import ExperimentStore

    for env in ("REPRO_EXECUTOR", "REPRO_STORE", "REPRO_JOBS"):
        monkeypatch.delenv(env, raising=False)

    assert isinstance(executor_for(), SerialExecutor)
    assert isinstance(executor_for("parallel"), ParallelExecutor)
    assert executor_for("parallel", max_workers=2).max_workers == 2

    # Explicit store argument wins over everything.
    with ExperimentStore(tmp_path / "explicit.sqlite") as store:
        cached = executor_for(store=store)
        assert isinstance(cached, CachedExecutor)
        assert cached.store is store

    # REPRO_STORE picks a sqlite-backed cache ...
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store.sqlite"))
    cached = executor_for()
    assert isinstance(cached, CachedExecutor)
    assert cached.store.path == str(tmp_path / "env-store.sqlite")
    cached.close()

    # ... and an explicit store argument beats the env knob; a directory
    # resolves to the store.sqlite inside it.
    cached = executor_for(store=tmp_path / "dir-store")
    assert cached.store.path == str(tmp_path / "dir-store" / "store.sqlite")
    cached.close()


def test_comparisons_refuses_lossy_overrides_regrouping():
    """An overrides sweep repeats (cell, scheme); regrouping it into one
    ComparisonResult would silently drop runs."""
    specs = [
        RunSpec(
            app="App1", scheme="baseline", iterations=4, seed=3,
            overrides={"retry_budget": budget},
        )
        for budget in (1, 5)
    ]
    outcome = PlanResult(runs=SerialExecutor().run(specs))
    with pytest.raises(ValueError, match="multiple 'baseline' runs"):
        outcome.comparisons()


def test_parallel_executor_validation():
    with pytest.raises(ValueError):
        ParallelExecutor(max_workers=0)
    with pytest.raises(ValueError):
        ParallelExecutor(chunksize=0)


def test_parallel_single_spec_stays_in_process():
    spec = RunSpec(app="App1", scheme="noise-free", iterations=4, seed=3)
    out = ParallelExecutor().run([spec])
    assert len(out) == 1 and out[0].run_id == spec.run_id


def test_default_executor_env_selection(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert isinstance(executor_for(), SerialExecutor)

    monkeypatch.setenv("REPRO_EXECUTOR", "parallel")
    monkeypatch.setenv("REPRO_JOBS", "3")
    executor = executor_for()
    assert isinstance(executor, ParallelExecutor)
    assert executor.max_workers == 3

    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "cache"))
    cached = executor_for()
    assert isinstance(cached, CachedExecutor)
    assert isinstance(cached.inner, ParallelExecutor)
    assert cached.store.path == str(tmp_path / "cache" / "store.sqlite")
    cached.close()

    monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
    with pytest.raises(ValueError):
        executor_for()


def test_default_executor_fleet_selection(monkeypatch, tmp_path):
    from repro.fleet import FleetExecutor

    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.setenv("REPRO_EXECUTOR", "fleet")
    monkeypatch.setenv("REPRO_FLEET_DB", str(tmp_path / "fleet.db"))
    monkeypatch.setenv("REPRO_FLEET_MACHINES", "toronto,guadalupe")
    executor = executor_for()
    try:
        assert isinstance(executor, FleetExecutor)
        assert executor.store.path == str(tmp_path / "fleet.db")
        assert executor.fleet.names() == ["guadalupe", "toronto"]
    finally:
        executor.close()

    # REPRO_STORE composes: store-backed cache in front of the fleet.
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "cache"))
    cached = executor_for()
    try:
        assert isinstance(cached, CachedExecutor)
        assert isinstance(cached.inner, FleetExecutor)
    finally:
        cached.inner.close()


def test_cached_executor_serves_repeated_comparison(tmp_path):
    cached = CachedExecutor(tmp_path / "cache", inner=CountingExecutor())
    plan = ExperimentPlan.single("App1", ["baseline", "qismet"], 5, seed=6)
    comp = cached.run_plan(plan).comparison("App1")
    assert set(comp.results) == {"baseline", "qismet"}
    assert cached.misses == 2
    comp2 = cached.run_plan(plan).comparison("App1")
    assert cached.inner.executed == 2  # second comparison fully cached
    assert comp2.improvements() == comp.improvements()
    cached.close()
