"""One workload in one fresh process; started by ``run.py``, not by hand.

Prints ``READY`` once set-up is done (``run.py`` times process start ->
READY as ``setup_s``), then measures passes for ``--seconds`` and prints
one JSON line with the pass statistics, check failures and, with
``--trace 1``, the per-layer metrics. Untraced passes run the program
unmodified. With tracing on, untraced and traced passes alternate, so
the trace overhead is measured under the same machine conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time

import numpy as np

from workloads import WORKLOADS, make_workdir, remove_workdir

perf_counter = time.perf_counter


#: Percentile of the per-rank best task latencies reported as task_tail_s.
TAIL_PERCENTILE = 90


def measure(workload, seconds: float, trace: bool, out_dir: str) -> dict:
    from repro.obs import METRICS

    tracer = None
    if trace:
        from layers import build_tracer

        tracer = build_tracer()
    plain, traced = [], []
    windows, deltas = [], {}
    queue_waits = []
    start = perf_counter()
    index = 0
    while True:
        # Start every pass from the same heap state.
        gc.collect()
        use_trace = trace and index % 2 == 1
        if use_trace:
            before = METRICS.counters()
            tracer.install()
            t0 = perf_counter()
            try:
                result = workload.run_pass()
            finally:
                t1 = perf_counter()
                tracer.uninstall()
            windows.append((t0, t1))
            for name, value in METRICS.counters().items():
                deltas[name] = deltas.get(name, 0) + value - before.get(name, 0)
            traced.append(result)
            if hasattr(workload, "queue_waits"):
                queue_waits.extend(workload.queue_waits[-1])
        else:
            plain.append(workload.run_pass())
        index += 1
        elapsed = perf_counter() - start
        if trace:
            if elapsed >= seconds and traced and len(traced) == len(plain):
                break
        elif elapsed >= seconds and len(plain) >= workload.min_passes:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    failures += workload.final_checks(passes)
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        failures.append(f"pass digests differ: {digests}")
    report = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_walls": [p.wall_s for p in plain],
        "traced_walls": [p.wall_s for p in traced],
        "digest": digests[0],
        "attempted": sum(p.attempted for p in passes),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "info": plain[0].info,
    }
    if not trace:
        report.update(end_to_end(plain))
    if getattr(workload, "traj_dev_sigma", None) is not None:
        report["traj_dev_sigma"] = workload.traj_dev_sigma
    if trace:
        from layers import layer_metrics

        extras = dict(traced[0].info)
        extras["deferrals"] = float(np.mean([p.info.get("deferrals", 0.0) for p in traced]))
        if queue_waits:
            extras["queue_wait_p50_s"] = float(np.median(queue_waits))
        extras["workers"] = float(workload.workers)
        report["per_layer"] = layer_metrics(
            tracer.spans, windows, deltas,
            [p.wall_s for p in traced], [p.wall_s for p in plain],
            extras, threading.main_thread().ident,
        )
        path = os.path.join(out_dir, f"spans-{workload.name}-{workload.seed}.jsonl.gz")
        tracer.write(path)
        report["spans_file"] = os.path.relpath(path)
        report["spans"] = len(tracer.spans)
    return report


def end_to_end(passes) -> dict:
    """Best-of-N figures over the measured passes.

    Every pass at one seed does the same work, and contention from other
    tenants of the shared host only ever slows a pass, in stretches that
    last seconds to minutes. A run's fastest pass is therefore a steadier
    reading of the program than its median pass. The same holds per task:
    each pass's latencies are sorted, and for every rank the least value
    over the passes is kept; ``task_p50_s`` and ``task_tail_s`` are read
    from that vector of per-rank best latencies.
    """
    fastest = min(passes, key=lambda p: p.wall_s)
    ranks = min(len(p.tasks) for p in passes)
    best = np.min([sorted(p.tasks)[:ranks] for p in passes], axis=0)
    return {
        "wall_s": fastest.wall_s,
        "iters_per_s": fastest.iterations / fastest.wall_s,
        "circuits_per_s": fastest.circuits / fastest.wall_s,
        "task_p50_s": float(np.percentile(best, 50)),
        "task_tail_s": float(np.percentile(best, TAIL_PERCENTILE)),
        "tail_percentile": TAIL_PERCENTILE,
        "task_ranks": ranks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    workdir = make_workdir(args.out_dir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        report = measure(workload, args.seconds, bool(args.trace), args.out_dir)
    finally:
        workload.close()
        remove_workdir(workdir)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
