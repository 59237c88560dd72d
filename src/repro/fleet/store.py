"""Persistent job store (stdlib SQLite) keyed by ``RunSpec`` content hash.

Jobs move through ``queued -> running -> done | failed``; a failed job is
re-queued on resubmission, a done job is a **dedupe hit** — resubmitting
the same spec returns the stored result without re-executing anything
(the spec's seed-determinism guarantees the stored payload is exactly
what a fresh run would produce).

The job table owns *lifecycle only*: result payloads live in an
embedded :class:`~repro.store.ExperimentStore` sharing this store's
SQLite connection (exposed as :attr:`JobStore.results`), so fleet
results land in the same content-addressed lakehouse every other cache
uses — queryable, deduped, and exportable with ``python -m repro.store``
pointed at the fleet db. A ``done`` row of a database written before
the store existed has no stored payload, so :meth:`JobStore.enqueue`
re-queues it and the deterministic run regenerates the same bytes
(``python -m repro.store import-legacy`` ingests the old inline
``jobs.result`` payloads instead). All timestamps are fleet-clock ticks,
keeping the store's contents reproducible run-over-run.

Crash safety: every transition is journaled (WAL-style, via
:meth:`~repro.store.ExperimentStore.journal_append` into the shared
database), ``mark_done`` persists the result payload *before* flipping
the row's status (so a crash between the two leaves a re-runnable
``running`` row whose re-execution dedupes against the stored payload),
and ``mark_done``/``mark_failed`` are idempotent so a resumed drain and
a straggling worker cannot corrupt each other's state. Named fault
sites (``jobstore.enqueue``, ``jobstore.mark_running``,
``jobstore.mark_done``, ``jobstore.mark_done.commit``) let the chaos
suite drive exactly these windows.

One connection serves all worker threads, guarded by a lock
(``check_same_thread=False``); SQLite serializes writes anyway, and the
fleet's write rate is one row per job transition. Several services may
share one database file: inserts are insert-or-keep statements, so two
connections submitting the same spec cannot race on the primary key.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.faults.inject import INJECTOR
from repro.runtime.results import RunResult
from repro.runtime.spec import RunSpec
from repro.store.store import ExperimentStore

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATUSES = (QUEUED, RUNNING, DONE, FAILED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    run_id      TEXT PRIMARY KEY,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL,
    device      TEXT,
    defers      INTEGER NOT NULL DEFAULT 0,
    attempts    INTEGER NOT NULL DEFAULT 0,
    error       TEXT,
    result      TEXT,
    submitted_tick INTEGER NOT NULL DEFAULT 0,
    started_tick   INTEGER,
    finished_tick  INTEGER
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);
CREATE TABLE IF NOT EXISTS telemetry (
    device      TEXT PRIMARY KEY,
    scheduled   INTEGER NOT NULL DEFAULT 0,
    completed   INTEGER NOT NULL DEFAULT 0,
    failed      INTEGER NOT NULL DEFAULT 0,
    deferred    INTEGER NOT NULL DEFAULT 0,
    cache_hits  INTEGER NOT NULL DEFAULT 0,
    retries     INTEGER NOT NULL DEFAULT 0,
    quarantines INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Columns added after the original schema shipped; ``CREATE TABLE IF
#: NOT EXISTS`` cannot retrofit them, so existing databases get an
#: additive ``ALTER TABLE`` on open.
_COLUMN_MIGRATIONS = (
    ("jobs", "attempts", "INTEGER NOT NULL DEFAULT 0"),
    ("telemetry", "retries", "INTEGER NOT NULL DEFAULT 0"),
    ("telemetry", "quarantines", "INTEGER NOT NULL DEFAULT 0"),
)


@dataclass
class JobRecord:
    """One row of the job table, spec-decoded."""

    run_id: str
    spec: RunSpec
    status: str
    device: Optional[str] = None
    defers: int = 0
    attempts: int = 0
    error: Optional[str] = None
    submitted_tick: int = 0
    started_tick: Optional[int] = None
    finished_tick: Optional[int] = None

    @property
    def is_done(self) -> bool:
        return self.status == DONE

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "device": self.device,
            "defers": self.defers,
            "attempts": self.attempts,
            "error": self.error,
            "submitted_tick": self.submitted_tick,
            "started_tick": self.started_tick,
            "finished_tick": self.finished_tick,
        }


class JobStore:
    """SQLite-backed job table + telemetry rollup.

    ``path=":memory:"`` gives an ephemeral per-service store; a file path
    makes jobs (and their results) survive across processes, which is what
    lets a resubmitted plan dedupe against last week's run.
    """

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._migrate_columns_locked()
            self._conn.commit()
        # Result payloads live in the experiment lakehouse, embedded in
        # the same database file (shared connection + re-entrant lock).
        self.results = ExperimentStore(
            self.path, conn=self._conn, lock=self._lock
        )

    def _migrate_columns_locked(self) -> None:
        for table, column, decl in _COLUMN_MIGRATIONS:
            present = {
                row["name"]
                for row in self._conn.execute(f"PRAGMA table_info({table})")
            }
            if column not in present:
                self._conn.execute(
                    f"ALTER TABLE {table} ADD COLUMN {column} {decl}"
                )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- job transitions ----------------------------------------------------

    def enqueue(self, spec: RunSpec, tick: int = 0) -> JobRecord:
        """Submit a spec; returns the (possibly pre-existing) record.

        * unknown spec — inserted as ``queued``;
        * ``done`` with an intact payload — returned as-is (dedupe hit);
        * ``done`` whose payload is missing or corrupt — **self-healed**:
          re-queued so the deterministic workload regenerates the bytes;
        * ``failed`` — re-queued with the error cleared;
        * ``queued``/``running`` — returned as-is (attach to in-flight job).
        """
        INJECTOR.fire("jobstore.enqueue", run_id=spec.run_id)
        with self._lock:
            existing = self._fetch_locked(spec.run_id)
            if existing is None:
                # Another service sharing the file may insert the same
                # run_id between the read above and this write.
                inserted = self._conn.execute(
                    "INSERT INTO jobs (run_id, spec, status, submitted_tick)"
                    " VALUES (?, ?, ?, ?) ON CONFLICT(run_id) DO NOTHING",
                    (spec.run_id, json.dumps(spec.to_dict()), QUEUED, tick),
                ).rowcount == 1
                if inserted:
                    self.results.journal_append(
                        "enqueue", spec.run_id, tick=tick
                    )
                    return JobRecord(
                        spec.run_id, spec, QUEUED, submitted_tick=tick
                    )
                self._conn.commit()
                existing = self._fetch_locked(spec.run_id)
            if existing.status == DONE and self.results.get(spec.run_id) is None:
                self._requeue_locked(
                    spec.run_id, tick, event="heal", attempts=existing.attempts
                )
                return self._fetch_locked(spec.run_id)
            if existing.status == FAILED:
                self._requeue_locked(
                    spec.run_id, tick, event="requeue", attempts=existing.attempts
                )
                return self._fetch_locked(spec.run_id)
            return existing

    def _requeue_locked(
        self, run_id: str, tick: int, event: str, attempts: int
    ) -> None:
        self._conn.execute(
            "UPDATE jobs SET status=?, error=NULL, device=NULL,"
            " defers=0, started_tick=NULL, finished_tick=NULL,"
            " submitted_tick=? WHERE run_id=?",
            (QUEUED, tick, run_id),
        )
        self.results.journal_append(
            event, run_id, attempt=attempts, tick=tick
        )
        self._conn.commit()

    def mark_running(self, run_id: str, device: str, tick: int) -> None:
        INJECTOR.fire("jobstore.mark_running", run_id=run_id)
        self._transition(
            run_id,
            RUNNING,
            allowed=(QUEUED, RUNNING),
            extra="device=?, started_tick=?",
            params=(device, tick),
            journal=("running", device, tick),
        )

    def mark_done(self, run_id: str, result: RunResult, tick: int) -> None:
        """Persist a result and flip the row to ``done`` — idempotently.

        The payload is appended to the experiment store *first*, the
        status transition commits second: a crash between the two leaves
        a ``running`` row whose resumed re-execution dedupes against the
        already-stored payload, so the final bytes are identical either
        way. Calling this on an already-``done`` row is a no-op, which is
        what makes a resumed drain safe against straggling workers.
        """
        INJECTOR.fire("jobstore.mark_done", run_id=run_id)
        with self._lock:
            row = self._conn.execute(
                "SELECT status, device FROM jobs WHERE run_id=?", (run_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {run_id!r}")
            if row["status"] == DONE:
                return
            device = row["device"]
            self.results.append(result, device=device, source="fleet")
            # Crash window the chaos suite drives: payload persisted,
            # status not yet committed.
            INJECTOR.fire("jobstore.mark_done.commit", run_id=run_id)
            self._transition(
                run_id,
                DONE,
                allowed=(RUNNING, QUEUED, FAILED),
                extra="result=NULL, error=NULL, finished_tick=?",
                params=(tick,),
                journal=("done", device, tick),
            )

    def mark_failed(self, run_id: str, error: str, tick: int) -> None:
        """Flip a job to ``failed`` (idempotent on already-failed rows)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT status, device FROM jobs WHERE run_id=?", (run_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {run_id!r}")
            if row["status"] in (DONE, FAILED):
                return
            self._transition(
                run_id,
                FAILED,
                allowed=(RUNNING, QUEUED),
                extra="error=?, finished_tick=?",
                params=(str(error)[:2000], tick),
                journal=("failed", row["device"], tick, str(error)[:200]),
            )

    def record_retry(self, run_id: str, detail: str, tick: int) -> int:
        """Retry lifecycle: put a running job back in the queue.

        Bumps ``attempts``, clears the device claim, and journals the
        retry; returns the new attempt count. The job re-enters the
        dispatch loop and backs off on the fleet clock (the service owns
        the backoff — the store only records the lifecycle).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT status, attempts, device FROM jobs WHERE run_id=?",
                (run_id,),
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {run_id!r}")
            if row["status"] not in (RUNNING, QUEUED):
                raise ValueError(
                    f"job {run_id}: cannot retry from {row['status']}"
                )
            attempts = row["attempts"] + 1
            self._conn.execute(
                "UPDATE jobs SET status=?, attempts=?, device=NULL,"
                " started_tick=NULL, error=? WHERE run_id=?",
                (QUEUED, attempts, str(detail)[:2000], run_id),
            )
            self.results.journal_append(
                "retry",
                run_id,
                device=row["device"],
                attempt=attempts,
                detail=str(detail)[:200],
                tick=tick,
            )
            self._conn.commit()
            return attempts

    def record_defer(self, run_id: str, count: int = 1) -> None:
        """Count ``count`` deferrals against a job (job stays queued).

        Per-device/tick attribution lives in the telemetry layer; the
        store keeps only the per-job total so ``status`` output and the
        in-memory ``FleetJob.defers`` budget agree.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET defers = defers + ? WHERE run_id=?",
                (count, run_id),
            )
            self._conn.commit()

    def _transition(
        self, run_id: str, status: str, allowed, extra: str, params,
        journal=None,
    ) -> None:
        with self._lock:
            row = self._conn.execute(
                "SELECT status FROM jobs WHERE run_id=?", (run_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {run_id!r}")
            if row["status"] not in allowed:
                raise ValueError(
                    f"job {run_id}: cannot move {row['status']} -> {status}"
                )
            self._conn.execute(
                f"UPDATE jobs SET status=?, {extra} WHERE run_id=?",
                (status, *params, run_id),
            )
            if journal is not None:
                event, device, tick = journal[0], journal[1], journal[2]
                detail = journal[3] if len(journal) > 3 else ""
                self.results.journal_append(
                    event, run_id, device=device, detail=detail, tick=tick
                )
            self._conn.commit()

    def requeue_running(self) -> int:
        """Crash recovery: put any ``running`` jobs back in the queue."""
        with self._lock:
            stranded = [
                row["run_id"]
                for row in self._conn.execute(
                    "SELECT run_id FROM jobs WHERE status=?"
                    " ORDER BY run_id",
                    (RUNNING,),
                )
            ]
            if not stranded:
                return 0
            self._conn.execute(
                "UPDATE jobs SET status=?, device=NULL, started_tick=NULL"
                " WHERE status=?",
                (QUEUED, RUNNING),
            )
            for run_id in stranded:
                self.results.journal_append("requeue", run_id)
            self._conn.commit()
            return len(stranded)

    # -- queries ------------------------------------------------------------

    def _fetch_locked(self, run_id: str) -> Optional[JobRecord]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE run_id=?", (run_id,)
        ).fetchone()
        return _record_from_row(row) if row is not None else None

    def fetch(self, run_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._fetch_locked(run_id)

    def result(self, run_id: str) -> Optional[RunResult]:
        """The stored ``RunResult`` of a done job (else ``None``)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM jobs WHERE run_id=? AND status=?",
                (run_id, DONE),
            ).fetchone()
            stored = None if row is None else self.results.get(run_id)
            if stored is not None:
                stored.from_cache = False
            return stored

    def jobs(self, status: Optional[str] = None) -> List[JobRecord]:
        if status is not None and status not in STATUSES:
            raise ValueError(f"unknown status {status!r}; known: {STATUSES}")
        with self._lock:
            if status is None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs ORDER BY submitted_tick, run_id"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE status=?"
                    " ORDER BY submitted_tick, run_id",
                    (status,),
                ).fetchall()
        return [_record_from_row(row) for row in rows]

    def run_ids(self, status: Optional[str] = None) -> List[str]:
        """Run ids (optionally filtered by status), without spec decoding."""
        if status is not None and status not in STATUSES:
            raise ValueError(f"unknown status {status!r}; known: {STATUSES}")
        with self._lock:
            if status is None:
                rows = self._conn.execute(
                    "SELECT run_id FROM jobs ORDER BY submitted_tick, run_id"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT run_id FROM jobs WHERE status=?"
                    " ORDER BY submitted_tick, run_id",
                    (status,),
                ).fetchall()
        return [row["run_id"] for row in rows]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in STATUSES}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    # -- telemetry rollup ---------------------------------------------------

    def accumulate_telemetry(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`FleetTelemetry.snapshot` into the persistent
        rollup (counters add across service lifetimes)."""
        with self._lock:
            for device, counters in snapshot.get("devices", {}).items():
                self._conn.execute(
                    "INSERT INTO telemetry"
                    " (device, scheduled, completed, failed, deferred,"
                    "  cache_hits, retries, quarantines)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT(device) DO UPDATE SET"
                    "  scheduled = scheduled + excluded.scheduled,"
                    "  completed = completed + excluded.completed,"
                    "  failed = failed + excluded.failed,"
                    "  deferred = deferred + excluded.deferred,"
                    "  cache_hits = cache_hits + excluded.cache_hits,"
                    "  retries = retries + excluded.retries,"
                    "  quarantines = quarantines + excluded.quarantines",
                    (
                        device,
                        counters.get("scheduled", 0),
                        counters.get("completed", 0),
                        counters.get("failed", 0),
                        counters.get("deferred", 0),
                        counters.get("cache_hits", 0),
                        counters.get("retries", 0),
                        counters.get("quarantines", 0),
                    ),
                )
            ticks = int(self._meta_locked("ticks", "0"))
            span = snapshot.get("ticks_elapsed", 0)
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('ticks', ?)"
                " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (str(ticks + int(span)),),
            )
            self._conn.commit()

    def telemetry(self) -> Dict[str, Any]:
        """The accumulated per-device rollup (plus total ticks)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM telemetry ORDER BY device"
            ).fetchall()
            ticks = int(self._meta_locked("ticks", "0"))
        return {
            "devices": {
                row["device"]: {
                    "scheduled": row["scheduled"],
                    "completed": row["completed"],
                    "failed": row["failed"],
                    "deferred": row["deferred"],
                    "cache_hits": row["cache_hits"],
                    "retries": row["retries"],
                    "quarantines": row["quarantines"],
                }
                for row in rows
            },
            "ticks": ticks,
        }

    def _meta_locked(self, key: str, default: str) -> str:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key=?", (key,)
        ).fetchone()
        return row["value"] if row is not None else default


def _record_from_row(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        run_id=row["run_id"],
        spec=RunSpec.from_dict(json.loads(row["spec"])),
        status=row["status"],
        device=row["device"],
        defers=row["defers"],
        attempts=row["attempts"],
        error=row["error"],
        submitted_tick=row["submitted_tick"],
        started_tick=row["started_tick"],
        finished_tick=row["finished_tick"],
    )
