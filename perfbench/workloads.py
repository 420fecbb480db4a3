"""The four workloads: one unit of work each, with its output checks.

Every unit runs in a fresh interpreter (see ``perfbench/worker.py``)
as a closed loop with one caller and no worker pool.  A unit returns a
plain dict:

- ``attempted`` / ``failed``: cells (registry workloads) or jobs
  (``api-jobs``) and how many of them failed or produced wrong output;
- ``errors``: one line per failure;
- ``job_s``: host seconds of every job in the unit (``api-jobs`` only);
- ``sim_digest``: digest of the simulated results, which must repeat
  for one seed;
- ``notes``: values the unit measured itself for the per-layer table.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

#: expected sha256 of each registry artifact JSON, recorded at the
#: commit that defined the benchmark (see README.md)
DIGESTS_PATH = os.path.join(HERE, "digests.json")

REGISTRY_WORKLOADS: dict[str, tuple[str, ...]] = {
    # the `make check` / campaign path: small-message simulation
    "campaign-fast": ("fig3", "fig4", "fig10", "fig11", "table1", "table5",
                      "resilience", "hostile", "cryptmpi", "scalability"),
    # the max-min flow solver: few large components, few rate classes
    "multipair-bulk": ("fig6",),
    # 64 blocking ranks on the thread runtime, many small components
    "collectives-64": ("table2",),
}

WORKLOADS = tuple(REGISTRY_WORKLOADS) + ("api-jobs",)

API_QUERIES = 500
MAX_PAYLOAD = 2 * 1024 * 1024


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_registry(name: str, workdir: str, *,
                 selection: list[str] | None = None,
                 digests: dict[str, str] | None = None) -> dict:
    """Cold campaign into a fresh cache under *workdir* (then a warm
    re-run for ``campaign-fast``); checks each artifact's sha256."""
    from repro.experiments import campaign

    order = list(selection or REGISTRY_WORKLOADS[name])
    expected = digests if digests is not None else load_digests()
    errors: list[str] = []
    attempted = 0
    notes: dict[str, float] = {}
    cells: dict[str, str] = {}
    # only the campaign path re-runs its selection against the warm cache
    passes = ("cold", "warm") if name == "campaign-fast" else ("cold",)
    for label in passes:
        t0 = time.perf_counter()
        result = campaign.run_campaign(
            order, jobs=1, results_dir=workdir,
            cache_dir=os.path.join(workdir, "cache"))
        if label == "warm":
            notes["experiments.campaign.warm_s"] = time.perf_counter() - t0
        for cell in result.cells:
            attempted += 1
            cid = cell.experiment_id
            if not cell.ok:
                errors.append(f"{label} {cid}: failed: {cell.error}")
                continue
            if label == "warm" and not cell.cached:
                errors.append(f"{label} {cid}: cache miss on warm pass")
                continue
            digest = sha256_file(os.path.join(workdir, f"{cid}.json"))
            cells[cid] = digest
            if digest != expected.get(cid):
                errors.append(f"{label} {cid}: artifact sha256 {digest} "
                              f"!= expected {expected.get(cid)}")
    sim = hashlib.sha256(json.dumps(cells, sort_keys=True).encode())
    return {"attempted": attempted, "failed": len(errors), "errors": errors,
            "job_s": [], "sim_digest": sim.hexdigest(), "notes": notes}


# ---------------------------------------------------------------------------
# api-jobs: a seeded stream of repro.api calls
# ---------------------------------------------------------------------------
# The rank programs below are what the verifier sees: keep them plain
# top-level-style closures over their inputs.  Each kind exists as a
# blocking (thread runtime) and a generator (coroutine runtime) body.


def ring_job(payloads: list[bytes]) -> Callable:
    def ring(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        data, _status = ctx.enc.sendrecv(payloads[ctx.rank], right, left)
        return data
    return ring


def co_ring_job(payloads: list[bytes]) -> Callable:
    def co_ring(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        data, _status = yield from ctx.enc.co_sendrecv(
            payloads[ctx.rank], right, left)
        return data
    return co_ring


def bcast_job(payload: bytes) -> Callable:
    def bcast(ctx):
        if ctx.rank == 0:
            return ctx.enc.bcast(payload, 0)
        return ctx.enc.bcast(None, 0, nbytes=len(payload))
    return bcast


def co_bcast_job(payload: bytes) -> Callable:
    def co_bcast(ctx):
        if ctx.rank == 0:
            return (yield from ctx.enc.co_bcast(payload, 0))
        return (yield from ctx.enc.co_bcast(None, 0, nbytes=len(payload)))
    return co_bcast


def alltoall_job(chunks: list[list[bytes]]) -> Callable:
    def alltoall(ctx):
        return ctx.enc.alltoall(chunks[ctx.rank])
    return alltoall


def co_alltoall_job(chunks: list[list[bytes]]) -> Callable:
    def co_alltoall(ctx):
        return (yield from ctx.enc.co_alltoall(chunks[ctx.rank]))
    return co_alltoall


#: payload sizes (bytes) of the stream: 1 B to 2 MB
SIZES = (1, 64, 2048, 65536, 524288, MAX_PAYLOAD)
KINDS = ("ring", "bcast", "alltoall")
RANK_COUNTS = (2, 3, 4, 5, 6, 7, 8)


def make_jobs(seed: int, n_jobs: int | None = None) -> list[dict]:
    """The seeded job stream.

    There is one job per (kind, library, size) in a fixed order; its
    rank count and runtime are fixed by that position.  The seed sets
    the payload bytes, so every seed's stream does the same work and
    reaches the same peak memory (which follows the order and size of
    the large jobs).  *n_jobs* keeps only the first jobs.
    """
    from repro.models.cryptolib import PROFILED_LIBRARIES

    rng = random.Random(seed)
    jobs = []
    for k, kind in enumerate(KINDS):
        for li, library in enumerate(PROFILED_LIBRARIES):
            for si, size in enumerate(SIZES):
                jobs.append({
                    "index": len(jobs), "kind": kind, "library": library,
                    "size": size,
                    "nranks": RANK_COUNTS[(3 * k + li + 2 * si)
                                          % len(RANK_COUNTS)],
                    "runtime": ("threads", "coroutines")[(k + li + si) % 2],
                    "payload_seed": rng.getrandbits(64)})
    return jobs[:n_jobs]


def build_job(job: dict) -> tuple[Callable, list]:
    """The rank program of *job* and each rank's expected result."""
    rng = random.Random(job["payload_seed"])
    nranks, size = job["nranks"], job["size"]
    coroutine = job["runtime"] == "coroutines"
    if job["kind"] == "ring":
        payloads = [rng.randbytes(size) for _ in range(nranks)]
        program = (co_ring_job if coroutine else ring_job)(payloads)
        return program, [payloads[(r - 1) % nranks] for r in range(nranks)]
    if job["kind"] == "bcast":
        payload = rng.randbytes(size)
        program = (co_bcast_job if coroutine else bcast_job)(payload)
        return program, [payload] * nranks
    # `size` is each rank's whole send buffer, split per peer
    per_peer = max(1, size // nranks)
    chunks = [[rng.randbytes(per_peer) for _ in range(nranks)]
              for _ in range(nranks)]
    program = (co_alltoall_job if coroutine else alltoall_job)(chunks)
    return program, [[chunks[s][r] for s in range(nranks)]
                     for r in range(nranks)]


def make_queries(seed: int, n: int = API_QUERIES) -> list[dict]:
    from repro.models.cryptolib import PROFILED_LIBRARIES

    rng = random.Random(seed ^ 0x5EED)
    libraries = (None,) + tuple(PROFILED_LIBRARIES)
    return [{"library": rng.choice(libraries),
             "fabric": rng.choice(("ethernet", "infiniband")),
             "size": max(1, int(2 ** rng.uniform(0, 22))),
             "pairs": rng.randint(1, 8)} for _ in range(n)]


def run_api_jobs(seed: int, *, n_jobs: int | None = None,
                 n_queries: int = API_QUERIES, calibrate: bool = True,
                 faults: str | None = None) -> dict:
    """Verify and run each job under real AEAD byte work, then fit the
    predictor (``cache_dir=None``) and answer a seeded query grid.

    *faults* (a fault-plan spec) injects wire faults into every job; it
    exists so the tests can show corrupted ciphertext is counted.
    """
    from repro import api

    jobs = make_jobs(seed, n_jobs)
    queries = make_queries(seed, n_queries)
    fault_plan = api.parse_fault_plan(faults) if faults else None
    errors: list[str] = []
    job_s: list[float] = []
    durations: list[str] = []
    for job in jobs:
        label = (f"job {job['index']} {job['kind']} n={job['nranks']} "
                 f"{job['size']}B {job['library']} {job['runtime']}")
        program, expect = build_job(job)
        security = api.SecurityConfig(
            library=job["library"],
            crypto=api.CryptoPlan(library=job["library"], bytework="real"))
        t0 = time.perf_counter()
        try:
            findings = api.verify_job(program)
            result = api.run_job(program, nranks=job["nranks"],
                                 security=security, faults=fault_plan)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            job_s.append(time.perf_counter() - t0)
        if findings:
            errors.append(f"{label}: verifier: {findings[0].format()}")
        elif result.results != expect:
            errors.append(f"{label}: payload did not round-trip")
        durations.append(repr(result.duration))
    attempted = len(jobs)
    if calibrate:
        attempted += 2
        model = api.calibrate_predictor(cache_dir=None)
        expected = load_digests()["predictor"]
        if model.digest() != expected:
            errors.append(f"predictor digest {model.digest()} != {expected}")
        answers = []
        for q in queries:
            p = model.predict(**q)
            answers.append(repr((p.latency, p.goodput, p.confidence)))
            if not (math.isfinite(p.latency) and p.latency > 0):
                errors.append(f"query {q}: latency {p.latency}")
                break
        durations.append(hashlib.sha256("".join(answers).encode())
                         .hexdigest())
    sim = hashlib.sha256("\n".join(durations).encode()).hexdigest()
    return {"attempted": attempted, "failed": len(errors), "errors": errors,
            "job_s": job_s, "sim_digest": sim, "notes": {}}


def run_unit(name: str, seed: int, workdir: str,
             params: dict | None = None) -> dict:
    """One unit of workload *name*; *params* are test-only overrides.
    Registry workloads run fixed cells, so *seed* only shapes api-jobs."""
    params = params or {}
    if name == "api-jobs":
        return run_api_jobs(seed, **params)
    if name in REGISTRY_WORKLOADS:
        return run_registry(name, workdir, **params)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
