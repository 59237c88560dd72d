"""Experiment store: content addressing, queries, aggregates, maintenance."""

import json

import pytest

from repro.runtime import ExperimentPlan, RunSpec, SerialExecutor
from repro.store import (
    DEFAULT_VIEW,
    ExperimentStore,
    RunQuery,
    export_plan_result,
    open_store,
    payload_hash,
    resolve_store_path,
)
from repro.utils.serialization import save_json

PLAN = ExperimentPlan(
    apps=("App1", "App2"),
    schemes=("baseline", "qismet", "noise-free"),
    iterations=6,
    seeds=(5, 7),
)


@pytest.fixture(scope="module")
def outcome():
    return SerialExecutor().run_plan(PLAN)


@pytest.fixture
def store(outcome):
    with ExperimentStore() as store:
        for run in outcome:
            store.append(run)
        yield store


# -- path resolution -----------------------------------------------------------


def test_resolve_store_path():
    assert resolve_store_path(":memory:") == ":memory:"
    assert resolve_store_path("runs/store.sqlite") == "runs/store.sqlite"
    assert resolve_store_path("runs/fleet.db") == "runs/fleet.db"
    assert resolve_store_path("runs") == "runs/store.sqlite"


def test_open_store_honors_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    scratch = open_store()
    assert scratch.path == ":memory:"
    scratch.close()

    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "results"))
    store = open_store()
    assert store.path == str(tmp_path / "results" / "store.sqlite")
    store.close()


# -- append / dedupe / content addressing --------------------------------------


def test_append_dedupes_on_run_id(outcome):
    with ExperimentStore() as store:
        run = outcome.runs[0]
        assert store.append(run) is True
        assert store.append(run) is False
        assert len(store) == 1
        assert run.run_id in store


def test_payload_is_content_addressed(store, outcome):
    run = outcome.runs[0]
    stored = store.get_stored(run.run_id)
    digest = store._conn.execute(
        "SELECT payload_hash FROM runs WHERE run_id = ?", (run.run_id,)
    ).fetchone()[0]
    assert payload_hash(stored.payload) == digest
    assert json.loads(stored.payload) == run.result.to_dict()


def test_roundtrip_is_bit_identical(store, outcome):
    for run in outcome:
        back = store.get(run.run_id)
        assert back.to_dict()["result"] == run.to_dict()["result"]
        assert back.spec == run.spec
        assert back.from_cache is True


def test_corrupt_payload_reads_as_miss_and_heals(outcome):
    with ExperimentStore() as store:
        run = outcome.runs[0]
        store.append(run)
        store._conn.execute("UPDATE blobs SET data = '{broken'")
        store._conn.commit()
        assert store.get(run.run_id) is None
        assert store.query_runs() == []
        # re-appending the same run heals the entry in place
        assert store.append(run) is True
        assert store.get(run.run_id) is not None


def test_identical_payloads_share_one_blob():
    # Same app/scheme/seed at different shots produces different run_ids
    # but (shots only affects sampling metadata here) the store still
    # dedupes at the blob level whenever payload bytes coincide.
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=3)
    run = SerialExecutor().run([spec])[0]
    with ExperimentStore() as store:
        store.append(run)
        blobs = store._conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]
        assert blobs == 1
        info = store.info()
        assert info["runs"] == 1 and info["blobs"] == 1


# -- typed queries -------------------------------------------------------------


def test_query_filters(store):
    assert len(store.query_runs()) == 12
    assert len(store.query_runs(RunQuery(apps="App1"))) == 6
    assert len(store.query_runs(RunQuery(schemes=("qismet",)))) == 4
    assert len(store.query_runs(RunQuery(apps="App1", seeds=5))) == 3
    assert len(store.query_runs(RunQuery(limit=2))) == 2
    rows = store.query_runs(RunQuery(apps="App2", schemes="baseline", seeds=7))
    assert len(rows) == 1 and rows[0].app == "App2"


def test_query_preserves_append_order(store, outcome):
    assert [s.run_id for s in store.query_runs()] == [
        run.run_id for run in outcome
    ]
    assert store.run_ids() == [run.run_id for run in outcome]


def test_query_min_seq_watermarking(store):
    rows = store.query_runs()
    newer = store.query_runs(RunQuery(min_seq=rows[5].seq))
    assert [s.seq for s in newer] == [s.seq for s in rows[6:]]


# -- aggregation parity --------------------------------------------------------


def test_comparisons_match_plan_result(store, outcome):
    query = RunQuery(run_ids=[run.run_id for run in outcome])
    comps = store.comparisons(query)
    direct = outcome.comparisons()
    assert set(comps) == set(direct)
    for key, comp in comps.items():
        assert comp.improvements() == direct[key].improvements()


def test_aggregate_bitwise_matches_geomean(store, outcome):
    query = RunQuery(run_ids=[run.run_id for run in outcome])
    assert store.aggregate(query) == outcome.geomean_improvements()


def test_comparisons_refuse_scheme_collisions():
    specs = [
        RunSpec(
            app="App1", scheme="baseline", iterations=4, seed=3,
            overrides={"retry_budget": budget},
        )
        for budget in (1, 5)
    ]
    runs = SerialExecutor().run(specs)
    with ExperimentStore() as store:
        for run in runs:
            store.append(run)
        # overrides land in different materialization cells, so the
        # typed query API refuses only when the *query* mixes them ...
        with pytest.raises(ValueError, match="multiple 'baseline' runs"):
            store.comparisons()
        # ... while materialize keys cells on the full spec and copes.
        store.materialize()


# -- materialized aggregates ---------------------------------------------------


def test_materialize_then_aggregate_matches_direct(store, outcome):
    report = store.materialize()
    assert report["view"] == DEFAULT_VIEW
    assert report["updated_cells"] == report["total_cells"] == 4
    assert store.aggregate_materialized() == outcome.geomean_improvements()


def test_incremental_materialize_only_touches_new_cells(store):
    store.materialize()
    again = store.materialize()
    assert again["updated_cells"] == 0  # nothing newer than the watermark

    spec = RunSpec(app="App1", scheme="baseline", iterations=6, seed=11)
    run = SerialExecutor().run([spec])[0]
    store.append(run)
    incr = store.materialize()
    assert incr["updated_cells"] == 1
    assert incr["total_cells"] == 5


def test_incremental_equals_full_rebuild(store, outcome):
    store.materialize()
    extra_specs = ExperimentPlan(
        apps=("App1",),
        schemes=("baseline", "qismet", "noise-free"),
        iterations=6,
        seeds=(11,),
    ).expand()
    extra = SerialExecutor().run(extra_specs)
    for run in extra:
        store.append(run)
    store.materialize()  # incremental: only the new cell
    incremental = store.aggregate_materialized()

    with ExperimentStore() as fresh:
        for run in [*outcome, *extra]:
            fresh.append(run)
        fresh.materialize(full=True)
        assert fresh.aggregate_materialized() == incremental


def test_materialize_baseline_change_forces_rebuild(store):
    store.materialize()
    swapped = store.materialize(baseline="noise-free")
    assert swapped["updated_cells"] == 4
    agg = store.aggregate_materialized()
    assert agg["noise-free"] == pytest.approx(1.0)


def test_materialize_skips_cells_missing_baseline(outcome):
    with ExperimentStore() as store:
        for run in outcome:
            if run.spec.scheme != "baseline":
                store.append(run)
        report = store.materialize()
        assert report["updated_cells"] == 0
        with pytest.raises(ValueError, match="no materialized cells"):
            store.aggregate_materialized()


def test_aggregate_materialized_requires_materialize(store):
    with pytest.raises(ValueError, match="no materialized cells"):
        store.aggregate_materialized()


# -- maintenance ---------------------------------------------------------------


def test_prune_removes_runs_and_invalidates_views(store):
    store.materialize()
    removed = store.prune(RunQuery(apps="App2"))
    assert removed == 6
    assert len(store) == 6
    with pytest.raises(ValueError, match="no materialized cells"):
        store.aggregate_materialized()
    rebuilt = store.materialize()
    assert rebuilt["total_cells"] == 2


def test_compact_reclaims_orphaned_blobs(store):
    store.prune(RunQuery(apps="App1"))
    report = store.compact()
    assert report["blobs_removed"] == 6
    assert report["bytes_reclaimed"] > 0
    # surviving runs still resolve
    assert len(store.query_runs()) == 6


# -- legacy ingestion ----------------------------------------------------------


def test_import_legacy_plan_result_file(tmp_path, outcome):
    plan_file = tmp_path / "plan-result.json"
    save_json(plan_file, outcome.to_dict())
    with ExperimentStore() as store:
        report = store.import_legacy(plan_file)
        assert report == {"ingested": 12, "skipped": 0, "errors": 0}
        again = store.import_legacy(plan_file)
        assert again == {"ingested": 0, "skipped": 12, "errors": 0}
        assert store.aggregate(
            RunQuery(run_ids=[r.run_id for r in outcome])
        ) == outcome.geomean_improvements()


def test_import_legacy_fleet_db(tmp_path, outcome):
    import sqlite3

    db = tmp_path / "legacy-fleet.db"
    conn = sqlite3.connect(str(db))
    conn.execute(
        "CREATE TABLE jobs (run_id TEXT PRIMARY KEY, status TEXT,"
        " device TEXT, result TEXT)"
    )
    run = outcome.runs[0]
    conn.execute(
        "INSERT INTO jobs VALUES (?, 'done', 'toronto', ?)",
        (run.run_id, json.dumps(run.to_dict())),
    )
    conn.commit()
    conn.close()
    with ExperimentStore() as store:
        report = store.import_legacy(db)
        assert report["ingested"] == 1
        stored = store.get_stored(run.run_id)
        assert stored.device == "toronto" and stored.source == "import"


# -- export facade -------------------------------------------------------------


def test_export_plan_result_roundtrip(tmp_path, store, outcome):
    out = tmp_path / "export.json"
    run_ids = [run.run_id for run in outcome]
    export_plan_result(store, run_ids, out, plan=PLAN.to_dict())
    data = json.loads(out.read_text())
    assert [entry["spec"] for entry in data["runs"]] == [
        run.to_dict()["spec"] for run in outcome
    ]
    assert [entry["result"] for entry in data["runs"]] == [
        run.to_dict()["result"] for run in outcome
    ]
    assert data["plan"] == json.loads(json.dumps(PLAN.to_dict()))

    with pytest.raises(KeyError):
        export_plan_result(store, ["missing-run"], tmp_path / "nope.json")


# -- introspection -------------------------------------------------------------


def test_info_summarizes_contents(store):
    store.materialize()
    info = store.info()
    assert info["runs"] == 12
    assert info["apps"] == ["App1", "App2"]
    assert set(info["schemes"]) == set(PLAN.schemes)
    assert info["views"][0]["view"] == DEFAULT_VIEW
    assert info["views"][0]["cells"] == 4
