"""``python -m repro.store`` CLI: info / query / aggregate / maintenance."""

import json

import pytest

from repro.runtime import ExperimentPlan, SerialExecutor
from repro.store import ExperimentStore
from repro.store.cli import main
from repro.utils.serialization import save_json

PLAN = ExperimentPlan(
    apps=("App1",),
    schemes=("baseline", "qismet"),
    iterations=5,
    seeds=(3, 4),
)


@pytest.fixture(scope="module")
def outcome():
    return SerialExecutor().run_plan(PLAN)


@pytest.fixture
def store_path(tmp_path, outcome):
    path = tmp_path / "store.sqlite"
    with ExperimentStore(path) as store:
        for run in outcome:
            store.append(run)
    return str(path)


def test_requires_store_path(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    with pytest.raises(SystemExit, match="no store given"):
        main(["info"])


def test_info(store_path, capsys):
    assert main(["--store", store_path, "info"]) == 0
    out = capsys.readouterr().out
    assert "runs: 4" in out.replace(" ", "").replace("runs:", "runs: ")

    assert main(["--store", store_path, "--json", "info"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["runs"] == 4 and info["apps"] == ["App1"]


def test_query_filters_and_json(store_path, capsys):
    assert main(["--store", store_path, "query"]) == 0
    out = capsys.readouterr().out
    assert "4 run(s)" in out

    assert main(
        ["--store", store_path, "--json", "query", "--scheme", "qismet"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["scheme"] == "qismet" for row in rows)


def test_aggregate_direct_and_materialized(store_path, outcome, capsys):
    expected = outcome.geomean_improvements()

    assert main(["--store", store_path, "--json", "aggregate"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert direct == expected

    assert main(["--store", store_path, "--json", "materialize"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["updated_cells"] == 2

    assert main(
        ["--store", store_path, "--json", "aggregate", "--materialized"]
    ) == 0
    materialized = json.loads(capsys.readouterr().out)
    assert materialized == expected


def test_env_store_resolution(store_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STORE", store_path)
    assert main(["--json", "info"]) == 0
    assert json.loads(capsys.readouterr().out)["runs"] == 4


def test_compact(store_path, capsys):
    assert main(["--store", store_path, "--json", "compact"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"blobs_removed": 0, "bytes_reclaimed": 0}


def test_import_legacy_strict_flag(tmp_path, capsys):
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    (legacy / "bad.json").write_text("{broken")
    store = str(tmp_path / "store.sqlite")

    assert main(["--store", store, "--json", "import-legacy", str(legacy)]) == 0
    assert json.loads(capsys.readouterr().out)["errors"] == 1

    assert (
        main(
            ["--store", store, "--json", "import-legacy", str(legacy), "--strict"]
        )
        == 1
    )


def test_import_legacy_ingests_cache_dir(tmp_path, outcome, capsys):
    legacy = tmp_path / "cache"
    legacy.mkdir()
    for run in outcome:
        save_json(legacy / f"{run.run_id}.json", run.to_dict())
    store = str(tmp_path / "store.sqlite")
    assert main(["--store", store, "--json", "import-legacy", str(legacy)]) == 0
    assert json.loads(capsys.readouterr().out)["ingested"] == 4
    assert main(["--store", store, "--json", "query", "--source", "import"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4


def test_module_entrypoint(store_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.store", "--store", store_path, "info"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "runs" in proc.stdout
