"""Differential runtime suite: threads vs coroutines, byte for byte.

The coroutine rank runtime is only admissible because it is
*observationally identical* to the thread runtime: same virtual times,
same event streams, same artifacts.  This suite pins that equivalence
on the golden workloads and cheap experiment cells, plus the
EngineOptions enforcement edges (strict-coroutines rejection of plain
rank functions, the MAX_RANKS ceiling), plus the cryptmpi chunk
pipeline, whose generator implementation serves both runtimes.
"""

import hashlib

import pytest

import repro.api as api
from repro.api import run_job
from repro import defaults
from repro.des.options import EngineOptions
from repro.experiments import goldens
from repro.models.cpu import parse_cluster_spec

CLUSTER = parse_cluster_spec("2x4")


@pytest.fixture(params=["threads", "coroutines"])
def runtime(request):
    """Run the test body once per runtime via the process-wide default."""
    with defaults.use(engine=EngineOptions(runtime=request.param)):
        yield request.param


def _force(runtime_name: str):
    return EngineOptions(runtime=runtime_name)


# ------------------------------------------------------------- golden runs

@pytest.mark.parametrize("name", sorted(goldens.GOLDEN_RUNS))
def test_golden_digests_identical_across_runtimes(name):
    """The strongest parity check: full structured event streams."""
    with defaults.use(engine=_force("threads")):
        threads = goldens.run_golden(name)
    with defaults.use(engine=_force("coroutines")):
        coros = goldens.run_golden(name)
    assert threads.canonical_lines() == coros.canonical_lines()
    assert threads.digest() == coros.digest()


# ------------------------------------------------------------ cheap cells

def _pingpong(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"x" * 512, 1, tag=1)
        ctx.comm.recv(1, 1)
    else:
        ctx.comm.recv(0, 1)
        ctx.comm.send(b"y" * 512, 0, tag=1)
    return ctx.now


def _co_pingpong(ctx):
    if ctx.rank == 0:
        yield from ctx.comm.co_send(b"x" * 512, 1, tag=1)
        yield from ctx.comm.co_recv(1, 1)
    else:
        yield from ctx.comm.co_recv(0, 1)
        yield from ctx.comm.co_send(b"y" * 512, 0, tag=1)
    return ctx.now


def test_generator_workload_identical_on_both_runtimes():
    a = run_job(_co_pingpong, nranks=2, cluster=CLUSTER, engine=_force("threads"))
    b = run_job(_co_pingpong, nranks=2, cluster=CLUSTER,
                engine=_force("coroutines"))
    assert a.results == b.results
    assert a.duration == b.duration
    assert a.spans == b.spans


def test_generator_and_plain_spellings_agree():
    """The blocking spelling is derived from the generator one —
    run_blocking interprets the same generators — so a plain-function
    rank on threads must land on the same virtual times."""
    plain = run_job(_pingpong, nranks=2, cluster=CLUSTER,
                    engine=_force("threads"))
    gen = run_job(_co_pingpong, nranks=2, cluster=CLUSTER,
                  engine=_force("coroutines"))
    assert plain.results == gen.results
    assert plain.duration == gen.duration


def test_encrypted_job_identical_on_both_runtimes(runtime):
    result = api.run_job(
        _co_enc_exchange, nranks=2,
        security=api.SecurityConfig(library="boringssl"),
        cluster=CLUSTER,
    )
    # virtual time must not depend on the runtime: compare against the
    # values the other runtime parameter of this fixture produces
    _ENC_DURATIONS[runtime] = result.duration
    if len(_ENC_DURATIONS) == 2:
        assert _ENC_DURATIONS["threads"] == _ENC_DURATIONS["coroutines"]


_ENC_DURATIONS: dict[str, float] = {}


def _co_enc_exchange(ctx):
    if ctx.rank == 0:
        yield from ctx.enc.co_send(b"s" * 2048, 1, tag=3)
    else:
        yield from ctx.enc.co_recv(0, 3)
    yield from ctx.comm.co_barrier()
    return ctx.now


# -------------------------------------------------------- enforcement edges

def test_strict_coroutines_rejects_plain_rank_functions():
    with pytest.raises(TypeError, match="_pingpong"):
        run_job(_pingpong, nranks=2, cluster=CLUSTER,
                engine=_force("coroutines"))


def test_max_ranks_ceiling_is_enforced():
    def never_runs(ctx):
        raise AssertionError("a rank spawned past the ceiling check")
        yield

    with pytest.raises(ValueError, match="4096"):
        run_job(never_runs, nranks=4097, cluster=CLUSTER,
                engine=_force("coroutines"))


def test_auto_runtime_picks_by_program_kind():
    # generator program on auto: must run (coroutines), same answer
    auto = run_job(_co_pingpong, nranks=2, cluster=CLUSTER)
    threads = run_job(_co_pingpong, nranks=2, cluster=CLUSTER,
                      engine=_force("threads"))
    assert auto.duration == threads.duration


# ------------------------------------------------------ cryptmpi pipeline

CRYPTMPI = api.CryptoPlan(mode="cryptmpi", chunk_bytes=1024)
TAG_PIPE = 9


def _co_cryptmpi_exchange(ctx):
    """Every co_* entry point of the chunk pipeline: send/recv, a window
    of isends drained by waitall, and a sendrecv."""
    enc = ctx.enc
    peer = 1 - ctx.rank
    got = []
    if ctx.rank == 0:
        yield from enc.co_send(b"z" * 4096, peer, tag=TAG_PIPE)
        reqs = []
        for i in range(3):
            reqs.append((yield from enc.co_isend(
                bytes([i + 1]) * 2500, peer, tag=TAG_PIPE)))
        yield from enc.co_waitall(reqs)
    else:
        data, _status = yield from enc.co_recv(peer, TAG_PIPE)
        got.append(data)
        reqs = [enc.irecv(peer, TAG_PIPE) for _ in range(3)]
        got.extend((yield from enc.co_waitall(reqs)))
    data, status = yield from enc.co_sendrecv(
        bytes([ctx.rank]) * 3000, peer, peer, TAG_PIPE + 1, TAG_PIPE + 1)
    got.append(data)
    return [bytes(g) for g in got], status.source, ctx.now


def _core_busy_digest(trace) -> str:
    busy = [line for line, e in zip(trace.canonical_lines(), trace.events)
            if e.kind == "core_busy"]
    assert busy, "the pipeline must schedule seals/opens on helper cores"
    return hashlib.sha256("\n".join(busy).encode()).hexdigest()


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "corrupt"])
def test_cryptmpi_pipeline_identical_on_both_runtimes(lossy):
    """The generator chunk pipeline runs as a coroutine and lands on the
    same results, virtual time and helper-core schedule as the blocking
    spelling on threads — including the NACK re-post path of a chunk
    that fails authentication."""
    faults = api.FaultPlan(corrupt=0.2, seed=5) if lossy else None
    resilience = api.ResiliencePolicy(max_retries=8, timeout=1e-3) \
        if lossy else None
    runs = {}
    for name in ("coroutines", "threads"):
        runs[name] = api.run_job(
            _co_cryptmpi_exchange, nranks=2,
            security=api.SecurityConfig(library="boringssl",
                                        crypto=CRYPTMPI),
            cluster=parse_cluster_spec("2x8"), trace="events",
            faults=faults, resilience=resilience, engine=_force(name),
        )
    co, th = runs["coroutines"], runs["threads"]
    assert co.results == th.results
    assert co.duration == th.duration
    assert _core_busy_digest(co.trace) == _core_busy_digest(th.trace)
    received = co.results[1][0]
    assert received[0] == b"z" * 4096
    assert received[1:4] == [bytes([i + 1]) * 2500 for i in range(3)]
    assert co.results[0][0] == [bytes([1]) * 3000]
    if lossy:
        assert co.trace.events_in("aead", "auth_fail"), \
            "the corrupt case must exercise the chunk re-post path"
