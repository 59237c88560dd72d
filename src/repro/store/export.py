"""Store-backed export of a plan's runs as one JSON file.

The one sanctioned place where store contents are written back out as
JSON (the fleet CLI's ``--export`` flag uses it), so the file is
guaranteed to reflect stored, deduped runs. The file holds
``{"plan": ..., "runs": [RunResult.to_dict(), ...]}``, which
``ExperimentStore.import_legacy`` reads back.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.store.query import RunQuery
from repro.store.store import ExperimentStore
from repro.utils.serialization import save_json


def export_plan_result(
    store: ExperimentStore,
    run_ids: Sequence[str],
    path: Union[str, Path],
    plan: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the named runs as a ``PlanResult``-format JSON file.

    Runs come back in the order given (the plan's expansion order), not
    append order, so the file matches ``PlanResult.to_dict()`` of the
    executed plan.
    """
    stored = {
        s.run_id: s for s in store.query_runs(RunQuery(run_ids=tuple(run_ids)))
    }
    missing = [rid for rid in run_ids if rid not in stored]
    if missing:
        raise KeyError(f"store is missing {len(missing)} run(s): {missing[:3]}")
    runs = [stored[rid].to_run_result(from_cache=False) for rid in run_ids]
    payload = {"plan": plan, "runs": [run.to_dict() for run in runs]}
    return save_json(path, payload)
