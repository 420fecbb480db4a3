"""Differential runtime suite: threads vs coroutines, byte for byte.

The coroutine rank runtime is only admissible because it is
*observationally identical* to the thread runtime: same virtual times,
same event streams, same artifacts.  This suite pins that equivalence
on the golden workloads and cheap experiment cells, plus the
EngineOptions enforcement edges (strict-coroutines rejection of plain
rank functions, the max_ranks ceiling, and the cryptmpi pipeline's
threads-only constraint).
"""

import pytest

import repro.api as api
from repro import defaults
from repro.des.options import EngineOptions
from repro.experiments import goldens
from repro.models.cpu import parse_cluster_spec
from repro.simmpi.world import run_program

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
    a = run_program(2, _co_pingpong, cluster=CLUSTER, engine=_force("threads"))
    b = run_program(2, _co_pingpong, cluster=CLUSTER,
                    engine=_force("coroutines"))
    assert a.results == b.results
    assert a.duration == b.duration
    assert a.spans == b.spans


def test_generator_and_plain_spellings_agree():
    """The blocking spelling is derived from the generator one —
    run_blocking interprets the same generators — so a plain-function
    rank on threads must land on the same virtual times."""
    plain = run_program(2, _pingpong, cluster=CLUSTER,
                        engine=_force("threads"))
    gen = run_program(2, _co_pingpong, cluster=CLUSTER,
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
        run_program(2, _pingpong, cluster=CLUSTER,
                    engine=_force("coroutines"))


def test_max_ranks_ceiling_is_enforced():
    with pytest.raises(ValueError, match="max_ranks"):
        run_program(
            4, _co_pingpong, cluster=CLUSTER,
            engine=EngineOptions(runtime="coroutines", max_ranks=2),
        )


def test_auto_runtime_picks_by_program_kind():
    # generator program on auto: must run (coroutines), same answer
    auto = run_program(2, _co_pingpong, cluster=CLUSTER)
    threads = run_program(2, _co_pingpong, cluster=CLUSTER,
                          engine=_force("threads"))
    assert auto.duration == threads.duration


def test_cryptmpi_pipeline_requires_threads():
    """The chunk pipeline overlaps helper cores with a *blocked* rank
    thread; its co_ spellings refuse to run rather than deadlock."""
    plan = api.CryptoPlan(mode="cryptmpi", chunk_bytes=1024)

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.enc.co_send(b"z" * 4096, 1, tag=9)
        else:
            yield from ctx.enc.co_recv(0, 9)

    with pytest.raises(RuntimeError, match="threads"):
        api.run_job(
            program, nranks=2,
            security=api.SecurityConfig(library="boringssl", crypto=plan),
            cluster=parse_cluster_spec("2x8"),
        )
