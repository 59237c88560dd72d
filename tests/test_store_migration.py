"""Schema migrations and legacy-cache ingestion round-trips."""

import json
import sqlite3

import pytest

from repro.runtime import ExperimentPlan, SerialExecutor
from repro.store import ExperimentStore, RunQuery, SchemaError, payload_hash
from repro.store.schema import SCHEMA_VERSION, create_v1_store, create_v2_store
from repro.utils.serialization import canonical_json, save_json

PLAN = ExperimentPlan(
    apps=("App1",),
    schemes=("baseline", "qismet"),
    iterations=5,
    seeds=(3, 4),
)


def _v1_store(path, runs):
    """Lay down a v1-layout store file holding the given runs inline."""
    conn = sqlite3.connect(str(path))
    conn.row_factory = sqlite3.Row
    create_v1_store(conn)
    for run in runs:
        conn.execute(
            "INSERT INTO runs (run_id, app, scheme, seed, shots, trace_scale,"
            " iterations, device, source, ground_truth, elapsed_s, created_at,"
            " spec, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run.run_id,
                run.spec.app_name,
                run.spec.scheme,
                run.spec.seed,
                run.spec.shots,
                run.spec.trace_scale,
                run.spec.iterations,
                None,
                "executor",
                float(run.ground_truth),
                float(run.elapsed_s),
                "2026-01-01T00:00:00+00:00",
                canonical_json(run.spec.to_dict()),
                canonical_json(run.result.to_dict()),
            ),
        )
    conn.commit()
    conn.close()


def test_v1_to_v2_migration_preserves_payload_bits(tmp_path):
    runs = SerialExecutor().run_plan(PLAN).runs
    db = tmp_path / "store.sqlite"
    _v1_store(db, runs)
    v1_payloads = {
        run.run_id: canonical_json(run.result.to_dict()) for run in runs
    }

    with ExperimentStore(db) as store:
        assert store.migrated_from == 1
        # every payload moved verbatim: byte-equal text, matching address
        for stored in store.query_runs():
            assert stored.payload == v1_payloads[stored.run_id]
        # append order survives as seq order
        assert store.run_ids() == [run.run_id for run in runs]
        # the migrated store is fully functional: aggregate + materialize
        direct = store.aggregate(RunQuery(run_ids=[r.run_id for r in runs]))
        store.materialize()
        assert store.aggregate_materialized() == direct

    # reopening is a no-op migration
    with ExperimentStore(db) as store:
        assert store.migrated_from == SCHEMA_VERSION


def test_v1_duplicate_payloads_collapse_into_one_blob(tmp_path):
    runs = SerialExecutor().run_plan(PLAN).runs
    db = tmp_path / "store.sqlite"
    # two v1 rows with identical payload text (a synthetic duplicate):
    # content addressing must collapse them into one blob
    dup = runs[:1] * 1
    _v1_store(db, runs)
    conn = sqlite3.connect(str(db))
    conn.execute(
        "INSERT INTO runs SELECT 'copy-of-first', app, scheme, seed, shots,"
        " trace_scale, iterations, device, source, ground_truth, elapsed_s,"
        " created_at, spec, payload FROM runs WHERE run_id = ?",
        (dup[0].run_id,),
    )
    conn.commit()
    conn.close()

    with ExperimentStore(db) as store:
        payload = canonical_json(dup[0].result.to_dict())
        count = store._conn.execute(
            "SELECT COUNT(*) FROM blobs WHERE hash = ?",
            (payload_hash(payload),),
        ).fetchone()[0]
        assert count == 1
        assert len(store) == len(runs) + 1


def test_v2_to_v3_migration_is_additive(tmp_path):
    """v2 -> v3 adds the ``traces`` table; run rows do not move."""
    runs = SerialExecutor().run_plan(PLAN).runs
    db = tmp_path / "store.sqlite"
    conn = sqlite3.connect(str(db))
    conn.row_factory = sqlite3.Row
    create_v2_store(conn)
    conn.close()
    with ExperimentStore(db) as store:
        for run in runs:
            store.append(run)

    # Rewind the version stamp to 2: the rows above are v2-layout rows.
    conn = sqlite3.connect(str(db))
    conn.execute("DROP TABLE traces")
    conn.execute(
        "UPDATE store_meta SET value = '2' WHERE key = 'schema_version'"
    )
    conn.commit()
    conn.close()

    with ExperimentStore(db) as store:
        assert store.migrated_from == 2
        assert store.run_ids() == [run.run_id for run in runs]
        for stored in store.query_runs():
            assert json.loads(stored.payload) == {
                run.run_id: run.result.to_dict() for run in runs
            }[stored.run_id]
        # the migrated store accepts trace summaries immediately
        trace_id = store.append_trace({"wall_s": 1.5}, label="post-migration")
        assert store.traces()[0]["trace_id"] == trace_id
        assert store.info()["traces"] == 1

    with ExperimentStore(db) as store:  # reopening is a no-op migration
        assert store.migrated_from == SCHEMA_VERSION
        assert store.traces()[0]["label"] == "post-migration"


def test_trace_payloads_are_content_addressed(tmp_path):
    db = tmp_path / "store.sqlite"
    with ExperimentStore(db) as store:
        store.append_trace({"wall_s": 2.0}, label="a")
        store.append_trace({"wall_s": 2.0}, label="b")  # same payload bits
    conn = sqlite3.connect(str(db))
    blobs = conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]
    rows = conn.execute("SELECT COUNT(*) FROM traces").fetchone()[0]
    conn.close()
    assert rows == 2 and blobs == 1  # two summaries, one shared blob


def test_future_schema_refused(tmp_path):
    db = tmp_path / "store.sqlite"
    with ExperimentStore(db):
        pass
    conn = sqlite3.connect(str(db))
    conn.execute(
        "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(SchemaError, match="newer than this code"):
        ExperimentStore(db)


def test_import_legacy_cached_executor_dir(tmp_path):
    """A pre-store CachedExecutor cache directory ingests cleanly and
    dedupes on run_id against runs already stored."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    runs = SerialExecutor().run_plan(PLAN).runs
    for run in runs:
        save_json(cache_dir / f"{run.run_id}.json", run.to_dict())
    (cache_dir / "garbage.json").write_text("{not json")

    with ExperimentStore() as store:
        # pre-seed one run: the import must skip it (run_id dedupe)
        store.append(runs[0])
        report = store.import_legacy(cache_dir)
        assert report == {
            "ingested": len(runs) - 1,
            "skipped": 1,
            "errors": 1,
        }
        assert len(store) == len(runs)
        for run in runs:
            stored = store.get_stored(run.run_id)
            assert json.loads(stored.payload) == run.result.to_dict()
        # pre-seeded run keeps its original source; imports are tagged
        assert store.get_stored(runs[0].run_id).source == "executor"
        assert store.get_stored(runs[1].run_id).source == "import"
