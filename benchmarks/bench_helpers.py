"""Shared benchmark helpers.

Each benchmark regenerates one of the paper's tables/figures and prints
the corresponding rows/series. Heavy experiments run exactly once per
bench (``benchmark.pedantic(..., rounds=1)``); wall-clock numbers are
reported by pytest-benchmark, and the scientific output goes to stdout
(run with ``-s`` or check the captured output).

Scale: reduced by default; ``REPRO_FULL=1`` reproduces paper-scale
iteration counts.

Execution: every figure builder routes through the experiment-plan
runtime (:mod:`repro.runtime`), so the whole suite honors
``REPRO_EXECUTOR=parallel`` (fan VQE runs out across cores,
``REPRO_JOBS`` caps workers) and ``REPRO_STORE=<dir>`` (serve
previously computed runs from the experiment store in ``<dir>`` —
rebuilding a figure becomes near-instant). Results are bit-identical across executors.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run a figure builder exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_table(title, rows):
    """Print a two-column table of (label, value) pairs."""
    print(f"\n=== {title} ===")
    width = max((len(str(label)) for label, _ in rows), default=8)
    for label, value in rows:
        if isinstance(value, float):
            print(f"  {str(label):<{width}}  {value:10.4f}")
        else:
            print(f"  {str(label):<{width}}  {value}")
