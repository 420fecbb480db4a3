"""The repository benchmark: host time to regenerate artifacts and run
encrypted jobs, end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the repository root::

    python3 perfbench/run.py --workload campaign-fast --seed 1 --seconds 25 --trace 0

Each unit of work runs in a fresh interpreter (``perfbench/worker.py``);
the run repeats units until ``--seconds`` would be exceeded (always at
least one) and reports medians.  Set-up time is measured by starting
interpreters that only import the program before each round of units,
and by every unit's own start.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The
full record (every sample, quartiles, tail percentile, bootstrap CI,
machine fingerprint) goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS  # noqa: E402

#: interpreters started before each round of units only to time
#: set-up, so set-up is sampled over the whole run like the units
SETUP_PROBES = 2
#: untraced units per run at least, so one disturbed unit cannot set
#: the run's median alone (a fig6 unit lasts 13-17 s)
MIN_UNITS = 2
#: every child must be gone well before the 180 s a run may take
RUN_BUDGET_S = 170.0

#: the gated end-to-end metrics (BENCHMARK.json), reported on every
#: workload; job latency and fail_frac are printed and recorded too
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class UnitError(RuntimeError):
    """A worker died, timed out or printed no result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PERFBENCH_TMP"] = os.path.join(HERE, "out", "tmp")
    return env


def spawn_worker(args: list[str], deadline: float
                 ) -> tuple[dict[str, float], dict | None]:
    """Run a worker to its end or to *deadline*; return its set-up
    (``wall`` seconds from start to its ``ready`` line and ``cpu``
    seconds it had used by then) and its JSON result."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args], cwd=ROOT,
        env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise UnitError(f"worker {args} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    ready = lines[0].split() if lines else []
    if proc.returncode != 0 or len(ready) != 3 or ready[0] != "ready":
        raise UnitError(f"worker {args} exited {proc.returncode}")
    setup = {"wall": float(ready[1]) - t0, "cpu": float(ready[2])}
    if "--setup-only" in args:
        return setup, None
    return setup, json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Under eleven samples the
    lowest sample stands in and fewer than ten lie beyond it."""
    xs = sorted(samples)
    n = len(xs)
    k = max(1, n - 10)
    return xs[k - 1], 100.0 * k / n, n - k


def summarize(samples: list[float], seed: int) -> dict:
    from repro.experiments.stats import estimate

    est = estimate(samples, seed=seed)
    q = (statistics.quantiles(samples, n=4) if len(samples) > 1
         else [samples[0]] * 3)
    value, pct, beyond = tail(samples)
    return {"n": len(samples), "median": est.median, "q1": q[0], "q3": q[2],
            "ci95": [est.lo, est.hi], "tail": value, "tail_percentile": pct,
            "tail_beyond": beyond, "samples": samples}


def fingerprint() -> dict:
    info: dict = {"nproc": os.cpu_count(), "python": platform.python_version(),
                  "platform": platform.platform()}
    try:
        import cryptography
        from cryptography.hazmat.backends.openssl import backend

        info["cryptography"] = cryptography.__version__
        info["openssl"] = backend.openssl_version_text()
    except ImportError:
        info["cryptography"] = None
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["commit"] = None
    from repro.experiments.campaign import code_fingerprint

    info["code_fingerprint"] = code_fingerprint()
    return info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    unit_args = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}"

    setup: list[dict[str, float]] = []
    units: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    try:
        t_start = time.monotonic()
        round_s: list[float] = []
        # A traced run alternates untraced and traced units: the overhead
        # is their ratio, and end-to-end numbers never come from traced
        # units.
        plan = ([[], ["--trace", "--spans",
                      os.path.join(out_dir, f"{tag}.spans.npz")]]
                if args.trace else [[]])
        while True:
            t0 = time.monotonic()
            for _ in range(SETUP_PROBES):
                setup.append(spawn_worker(["--setup-only"], deadline)[0])
            for extra in plan:
                ready, unit = spawn_worker(unit_args + extra, deadline)
                setup.append(ready)
                (traced if extra else units).append(unit)
            round_s.append(time.monotonic() - t0)
            # stop before a next round would likely overrun --seconds
            spent = time.monotonic() - t_start
            enough = len(units) >= (1 if args.trace else MIN_UNITS)
            if enough and spent + statistics.mean(round_s) > args.seconds:
                break
    except UnitError as exc:
        errors.append(str(exc))

    # a unit that crashed counts as one failed attempt
    attempted = sum(u["attempted"] for u in units + traced) + bool(errors)
    failed = sum(u["failed"] for u in units + traced) + bool(errors)
    for u in units + traced:
        errors.extend(u["errors"])
    digests = {u["sim_digest"] for u in units + traced}
    if len(digests) > 1:
        errors.append(f"simulated results differ between units: {digests}")
    if traced:
        counts = [{k: v for k, v in t["layers"].items()
                   if not k.endswith("_s") and not k.endswith("_us")}
                  for t in traced]
        if any(c != counts[0] for c in counts[1:]):
            errors.append("per-layer counts differ between traced units")
    if not units:
        errors.append("no unit completed")
    correct = not errors and failed == 0

    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "machine": fingerprint(), "attempted": attempted,
                    "failed": failed,
                    "fail_frac": failed / attempted if attempted else 1.0,
                    "errors": errors[:50], "sim_digest": sorted(digests)}
    metrics: dict[str, dict] = {}
    shown: list[tuple[str, float, str]] = []
    if units:
        jobs = [s for u in units for s in u["job_s"]]
        stats = {
            # CPU seconds: steadier on a shared host than the wall time
            # to ready, which is recorded beside it
            "setup_s": summarize([s["cpu"] for s in setup], args.seed),
            "setup_wall_s": summarize([s["wall"] for s in setup],
                                      args.seed),
            "wall_s": summarize([u["wall_s"] for u in units], args.seed),
            "cpu_s": summarize([u["cpu_s"] for u in units], args.seed),
            "peak_rss_mb": summarize([u["peak_rss_mb"] for u in units],
                                     args.seed),
        }
        if jobs:
            stats["job_ms"] = summarize([s * 1e3 for s in jobs], args.seed)
        record["end_to_end"] = stats
        record["steal_s"] = [u["steal_s"] for u in units]
        values = {
            "setup_s": stats["setup_s"]["median"],
            "wall_s": stats["wall_s"]["median"],
            "cpu_s": stats["cpu_s"]["median"],
            "peak_rss_mb": max(stats["peak_rss_mb"]["samples"]),
        }
        if not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in values.items()}
            shown = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
            job = stats.get("job_ms")
            shown += [] if job is None else [
                ("job_p50_ms", job["median"], f"ms (n={job['n']})"),
                ("job_tail_ms", job["tail"],
                 f"ms (p{job['tail_percentile']:.1f}, "
                 f"{job['tail_beyond']} beyond, n={job['n']})"),
            ]
    if args.trace and traced:
        layer_values: dict[str, float] = {}
        for key in traced[0]["layers"]:
            samples = [t["layers"][key] for t in traced]
            # times vary between units; counts must not (checked above)
            layer_values[key] = (statistics.median(samples)
                                 if key.endswith(("_s", "_us"))
                                 else samples[0])
        traced_wall = layer_values.pop("harness.traced_wall_s")
        layer_values["harness.trace_overhead"] = (
            traced_wall / statistics.median(u["wall_s"] for u in units) - 1.0
            if units else 0.0)
        record["per_layer"] = layer_values
        record["traced_units"] = [t["layers"] for t in traced]
        from perfbench.layers import per_layer_units

        metrics = {k: {"value": v, "unit": per_layer_units(k)}
                   for k, v in layer_values.items()}
        shown = [(k, m["value"], m["unit"]) for k, m in metrics.items()]

    with open(os.path.join(out_dir, f"{tag}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    shown.append(("fail_frac", record["fail_frac"],
                  f"({failed} of {attempted} failed)"))
    for name, value, unit in shown:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in errors[:10]:
        print(f"FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
