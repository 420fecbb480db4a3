"""One unit of one workload in a fresh interpreter.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.worker --workload campaign-fast --seed 1
    python3 -m perfbench.worker --setup-only

It imports ``repro``, ``repro.api`` and the experiment registry, prints
``ready`` with its clock and CPU seconds at that point (the parent's
set-up time), runs the unit and
prints one JSON line: host wall and CPU seconds of the unit, peak RSS,
the unit's own result (see ``perfbench/workloads.py``) and, with
``--trace``, the per-layer metrics.  ``--spans PATH`` also writes the
traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def steal_s() -> float:
    """Seconds the hypervisor has taken from this machine's CPUs (all
    CPUs summed; 0 where /proc/stat is missing).  Recorded with each
    unit so a slow unit can be told apart from a slow program."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--params", default=None,
                    help="JSON overrides for the workload (tests only)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import repro  # noqa: F401
    import repro.api  # noqa: F401
    import repro.experiments.registry  # noqa: F401

    # set-up as the worker itself saw it: the monotonic clock (one
    # clock for every process on Linux, so the parent subtracts its
    # start stamp) and the CPU seconds of this, the importing, thread
    # since the process started.  Helper threads are left out: the BLAS
    # pool numpy starts spins for a varying share of set-up.
    ru = resource.getrusage(getattr(resource, "RUSAGE_THREAD",
                                    resource.RUSAGE_SELF))
    print(f"ready {time.monotonic()!r} {ru.ru_utime + ru.ru_stime!r}",
          flush=True)
    if args.setup_only:
        return 0

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    params = json.loads(args.params) if args.params else None
    workdir = tempfile.mkdtemp(prefix="unit-", dir=os.environ.get(
        "PERFBENCH_TMP"))
    tracer = patch = None
    if args.trace:
        tracer = Tracer(layers.LAYERS)
        patch = layers.install(tracer)
    try:
        steal0 = steal_s()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.start()
        unit = workloads.run_unit(args.workload, args.seed, workdir, params)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        steal = steal_s() - steal0
        if tracer is not None:
            traced_wall = tracer.stop()
    finally:
        if patch is not None:
            patch.undo()
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "steal_s": steal,
        **unit,
    }
    if tracer is not None:
        out["layers"] = layers.per_layer_metrics(tracer, traced_wall,
                                                 unit["notes"])
        out["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
