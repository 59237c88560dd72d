"""The repository benchmark: one workload, timed end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig17_grid --seed 13 --seconds 30 --trace 0

Workloads: ``fig17_grid``, ``fleet_fig13``, ``counts_traj`` (see
``perfbench/DESIGN.md``). The workload runs in a fresh Python process with
every ``REPRO_*`` variable cleared and BLAS/OpenMP pinned to one thread.
``setup_s`` is the median, over several fresh processes, of process start
to ready. With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run. The lines before it print every metric with its
unit, the configuration stamp and the correctness verdicts. The exit
status is non-zero if any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Seed used when none is given, and the seed held out for re-checking
#: gain claims (never used while tuning a change).
DEFAULT_SEED = 13
HELD_OUT_SEED = 29
WORKLOAD_NAMES = ("fig17_grid", "fleet_fig13", "counts_traj")
#: Fresh processes timed for setup_s per run (the measured one included).
SETUP_SAMPLES = 3
#: Wall-clock limit on the whole run, set-up processes included.
RUN_TIMEOUT_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: End-to-end metrics in the final JSON line (BENCHMARK.json order).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "circuits_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
}


def clean_env():
    """The child environment and the ``REPRO_*`` names it dropped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def git_commit() -> str:
    """The checkout's commit from ``.git`` files, or ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def system_info(env, cleared, seed):
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cleared_env": cleared,
        "thread_pins": THREAD_PINS,
    }


def run_child(args, env, setup_only: bool, deadline: float):
    """Run the worker; returns (seconds from start to READY, JSON report).

    The worker is killed if it is still running at ``deadline``.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                lines.append(line)
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with status {code} (ready={ready})")
    report = None if setup_only else json.loads(lines[-1])
    return ready, report


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_end_to_end(report, setup_samples):
    info = report["info"]
    ranks_note = (f"over {report['task_ranks']} per-rank best latencies, "
                  f"each the least of {report['passes']} passes")
    rows = [
        ("setup_s", "s", report["setup_s"],
         f"median of {len(setup_samples)} process starts: "
         + ", ".join(f"{s:.3f}" for s in setup_samples)),
        ("wall_s", "s", report["wall_s"], f"fastest of {report['passes']} passes"),
        ("iters_per_s", "1/s", report["iters_per_s"] or None,
         "VQE iterations per host second, fastest pass"),
        ("circuits_per_s", "1/s", report["circuits_per_s"],
         "circuit executions per host second, fastest pass"),
        ("task_p50_s", "s", report["task_p50_s"], ranks_note),
        ("task_tail_s", "s", report["task_tail_s"],
         f"p{report['tail_percentile']}, {ranks_note}"),
        ("fail_rate", "ratio", report["failed"] / report["attempted"],
         f"{report['failed']} of {report['attempted']}"),
        ("peak_rss_mb", "MB", report["peak_rss_mb"], "worker process"),
        ("qismet_gain", "ratio", info.get("qismet_gain"), "geomean QISMET/baseline"),
        ("traj_dev_sigma", "sigma", report.get("traj_dev_sigma"),
         "max |E_traj - E_dm| / sigma_shot"),
    ]
    for name, unit, value, note in rows:
        print(f"  {name:<16} {fmt(value):>14} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env, cleared = clean_env()
    stamp = system_info(env, cleared, args.seed)

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setup_samples = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _report = run_child(args, env, True, deadline)
            setup_samples.append(ready)
        ready, report = run_child(args, env, False, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(ready)
    report["setup_s"] = statistics.median(setup_samples)
    report["failed"] = len(report["failures"])
    correct = report["failed"] == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"digest {report['digest']} qismet_gain={fmt(report['info'].get('qismet_gain'))} "
          f"passes={report['passes']} traced_passes={report['traced_passes']}")
    print("pass_walls_s " + " ".join(f"{w:.3f}" for w in report["pass_walls"])
          + " | traced " + " ".join(f"{w:.3f}" for w in report["traced_walls"]))
    if args.trace:
        metrics, units = report["per_layer"], PER_LAYER_UNITS
        for name, unit in units.items():
            print(f"  {name:<32} {fmt(metrics[name]):>14} {unit}")
        print(f"  spans: {report['spans']} written to {report['spans_file']}")
    else:
        print_end_to_end(report, setup_samples)
        metrics = report
        units = END_TO_END_UNITS
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")
    print("checks: " + ("all passed" if correct else f"{report['failed']} failed"))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
