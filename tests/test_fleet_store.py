"""Job store: lifecycle transitions, dedupe, persistence, telemetry rollup."""

import pytest

from repro.fleet.store import DONE, FAILED, QUEUED, RUNNING, JobStore
from repro.runtime import RunSpec, SerialExecutor


def _spec(seed=3, scheme="noise-free"):
    return RunSpec(app="App1", scheme=scheme, iterations=3, seed=seed)


def _result(spec):
    return SerialExecutor().run([spec])[0]


def test_enqueue_new_job_is_queued():
    with JobStore() as store:
        spec = _spec()
        record = store.enqueue(spec, tick=5)
        assert record.status == QUEUED
        assert record.submitted_tick == 5
        fetched = store.fetch(spec.run_id)
        assert fetched.spec == spec
        assert fetched.status == QUEUED


def test_full_lifecycle_and_result_roundtrip():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_running(spec.run_id, "toronto", tick=1)
        assert store.fetch(spec.run_id).status == RUNNING
        assert store.fetch(spec.run_id).device == "toronto"
        result = _result(spec)
        store.mark_done(spec.run_id, result, tick=2)
        record = store.fetch(spec.run_id)
        assert record.status == DONE and record.finished_tick == 2
        stored = store.result(spec.run_id)
        assert stored == result  # RunResult equality = spec + payload


def test_enqueue_done_job_is_dedupe_hit():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_done(spec.run_id, _result(spec), tick=1)
        again = store.enqueue(spec, tick=9)
        assert again.is_done
        # nothing was reset: original completion metadata survives
        assert again.finished_tick == 1


def test_enqueue_keeps_row_inserted_by_another_connection(tmp_path):
    """Two services sharing one database: when the other connection
    inserts the same run_id between this one's read and its write, the
    enqueue attaches to that row instead of failing on the primary key."""
    db = tmp_path / "fleet.db"
    spec = _spec()
    with JobStore(db) as first, JobStore(db) as second:
        fetch = second._fetch_locked
        raced = []

        def read_then_lose_race(run_id):
            record = fetch(run_id)
            if not raced:
                raced.append(run_id)
                first.enqueue(spec, tick=1)
            return record

        second._fetch_locked = read_then_lose_race
        record = second.enqueue(spec, tick=2)
        assert raced and record.status == QUEUED
        assert record.submitted_tick == 1
        events = [e["event"] for e in second.results.journal_entries(spec.run_id)]
        assert events == ["enqueue"]


def test_enqueue_failed_job_requeues():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_running(spec.run_id, "cairo", tick=1)
        store.mark_failed(spec.run_id, "boom", tick=2)
        assert store.fetch(spec.run_id).error == "boom"
        record = store.enqueue(spec, tick=3)
        assert record.status == QUEUED
        assert record.error is None and record.defers == 0


def test_invalid_transition_rejected():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_done(spec.run_id, _result(spec), tick=1)
        with pytest.raises(ValueError):
            store.mark_running(spec.run_id, "toronto", tick=2)
        with pytest.raises(KeyError):
            store.mark_running("no-such-job", "toronto", tick=2)


def test_record_defer_increments():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.record_defer(spec.run_id)
        store.record_defer(spec.run_id, count=3)
        assert store.fetch(spec.run_id).defers == 4
        with pytest.raises(ValueError):
            store.record_defer(spec.run_id, count=0)


def test_counts_jobs_and_run_ids():
    with JobStore() as store:
        done_spec, queued_spec = _spec(1), _spec(2)
        store.enqueue(done_spec)
        store.enqueue(queued_spec)
        store.mark_done(done_spec.run_id, _result(done_spec), tick=1)
        counts = store.counts()
        assert counts == {QUEUED: 1, RUNNING: 0, DONE: 1, FAILED: 0}
        assert [r.run_id for r in store.jobs(status=DONE)] == [done_spec.run_id]
        assert store.run_ids(status=DONE) == [done_spec.run_id]
        assert len(store.run_ids()) == 2
        with pytest.raises(ValueError):
            store.jobs(status="bogus")


def test_persistence_across_reopen(tmp_path):
    db = tmp_path / "fleet.db"
    spec = _spec()
    result = _result(spec)
    with JobStore(db) as store:
        store.enqueue(spec)
        store.mark_done(spec.run_id, result, tick=4)
    with JobStore(db) as store:
        assert store.fetch(spec.run_id).is_done
        assert store.result(spec.run_id) == result


def test_requeue_running_recovers_crashed_jobs(tmp_path):
    db = tmp_path / "fleet.db"
    spec = _spec()
    with JobStore(db) as store:
        store.enqueue(spec)
        store.mark_running(spec.run_id, "toronto", tick=1)
    with JobStore(db) as store:
        assert store.requeue_running() == 1
        record = store.fetch(spec.run_id)
        assert record.status == QUEUED and record.device is None


def test_result_payload_delegated_to_experiment_store():
    """mark_done hands the payload to the embedded ExperimentStore — the
    jobs table keeps lifecycle only, the store owns content."""
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_running(spec.run_id, "toronto", tick=1)
        store.mark_done(spec.run_id, _result(spec), tick=2)
        stored = store.results.get_stored(spec.run_id)
        assert stored is not None
        assert stored.source == "fleet" and stored.device == "toronto"
        # no inline payload left on the jobs row
        row = store._conn.execute(
            "SELECT result FROM jobs WHERE run_id = ?", (spec.run_id,)
        ).fetchone()
        assert row["result"] is None


def test_pre_store_done_row_requeued_and_redrained(tmp_path):
    """A pre-store database keeps a ``done`` row's payload inline in
    ``jobs.result`` and has no stored blob. Only ``import-legacy`` reads
    that column: ``enqueue`` re-queues the row, and a drain regenerates
    the reference payload byte-for-byte."""
    import json

    from repro.fleet.service import FleetService
    from repro.utils.serialization import canonical_json

    db = tmp_path / "fleet.db"
    spec = _spec()
    reference = _result(spec)
    with JobStore(db) as store:
        store.enqueue(spec)
        store._conn.execute(
            "UPDATE jobs SET status = ?, result = ?, finished_tick = 1"
            " WHERE run_id = ?",
            (DONE, json.dumps(reference.to_dict()), spec.run_id),
        )
        store._conn.commit()
        assert store.result(spec.run_id) is None
        assert store.enqueue(spec, tick=2).status == QUEUED
        events = [e["event"] for e in store.results.journal_entries(spec.run_id)]
        assert events == ["enqueue", "heal"]
    with FleetService(machines=["toronto"], db_path=str(db)) as service:
        service.submit([spec])
        service.drain(timeout=120)
        assert service.store.fetch(spec.run_id).is_done
        stored = service.store.results.get_stored(spec.run_id)
        assert stored.payload == canonical_json(reference.result.to_dict())


def test_telemetry_rollup_accumulates(tmp_path):
    db = tmp_path / "fleet.db"
    snapshot = {
        "devices": {
            "toronto": {
                "scheduled": 2, "completed": 2, "failed": 0,
                "deferred": 1, "cache_hits": 0,
            },
        },
        "ticks_elapsed": 7,
    }
    with JobStore(db) as store:
        store.accumulate_telemetry(snapshot)
    with JobStore(db) as store:
        store.accumulate_telemetry(snapshot)
        rollup = store.telemetry()
    assert rollup["devices"]["toronto"]["completed"] == 4
    assert rollup["devices"]["toronto"]["deferred"] == 2
    assert rollup["ticks"] == 14
