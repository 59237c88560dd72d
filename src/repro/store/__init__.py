"""Experiment lakehouse: the content-addressed result store behind every
cache.

Every persistence path in the repo — the executor result cache, the
fleet job store's payloads, figure-builder inputs, CLI exports — reads
and writes through :class:`ExperimentStore`. Open one with
:func:`open_store` (honors the ``REPRO_STORE`` environment knob) and
query it with :class:`RunQuery`; maintain it with
``python -m repro.store``.
"""

from repro.store.export import export_plan_result
from repro.store.query import RunQuery, StoredRun
from repro.store.schema import SCHEMA_VERSION, SchemaError, payload_hash
from repro.store.store import (
    DEFAULT_VIEW,
    STORE_ENV,
    ExperimentStore,
    open_store,
    resolve_store_path,
)

__all__ = [
    "DEFAULT_VIEW",
    "ExperimentStore",
    "RunQuery",
    "SCHEMA_VERSION",
    "STORE_ENV",
    "SchemaError",
    "StoredRun",
    "export_plan_result",
    "open_store",
    "payload_hash",
    "resolve_store_path",
]
