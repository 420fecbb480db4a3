"""Tests for communicator splitting, probing, reduce_scatter and scan."""

import numpy as np
import pytest

from repro.api import run_job
from repro.models.cpu import ClusterSpec
from repro.simmpi import ANY_SOURCE, ANY_TAG

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


def _sum_op(a: bytes, b: bytes) -> bytes:
    return (
        np.frombuffer(a, dtype=np.int64) + np.frombuffer(b, dtype=np.int64)
    ).tobytes()


# ---- split -------------------------------------------------------------


def test_split_into_even_odd_groups():
    def prog(ctx):
        sub = ctx.comm.split(color=ctx.rank % 2)
        assert sub is not None
        roster = sub.allgather(bytes([ctx.rank]))
        return (sub.rank, sub.size, [b[0] for b in roster])

    results = run_job(prog, nranks=8, cluster=CLUSTER).results
    evens = [r for r in range(8) if r % 2 == 0]
    odds = [r for r in range(8) if r % 2 == 1]
    for r in range(8):
        local_rank, size, roster = results[r]
        assert size == 4
        assert roster == (evens if r % 2 == 0 else odds)
        assert roster[local_rank] == r


def test_split_key_reorders_ranks():
    def prog(ctx):
        # Reverse order within one group via the key.
        sub = ctx.comm.split(color=0, key=-ctx.rank)
        roster = sub.allgather(bytes([ctx.rank]))
        return [b[0] for b in roster]

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert results[0] == [3, 2, 1, 0]


def test_split_undefined_color():
    def prog(ctx):
        sub = ctx.comm.split(color=None if ctx.rank == 0 else 1)
        if ctx.rank == 0:
            return sub is None
        return sub.size

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert results[0] is True
    assert results[1:] == [3, 3, 3]


def test_split_traffic_is_isolated():
    """Point-to-point in one subgroup must not match messages of the
    other subgroup even with identical (local source, tag)."""

    def prog(ctx):
        sub = ctx.comm.split(color=ctx.rank // 2)  # pairs: {0,1}, {2,3}
        if sub.rank == 0:
            sub.send(f"group{ctx.rank // 2}".encode(), 1, tag=5)
            return None
        data, status = sub.recv(0, 5)
        return (data, status.source)

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert results[1] == (b"group0", 0)
    assert results[3] == (b"group1", 0)


def test_nested_split():
    def prog(ctx):
        half = ctx.comm.split(color=ctx.rank // 4)
        quarter = half.split(color=half.rank // 2)
        return (quarter.size, quarter.rank)

    results = run_job(prog, nranks=8, cluster=CLUSTER).results
    assert all(size == 2 for size, _r in results)
    assert [r for _s, r in results] == [0, 1, 0, 1, 0, 1, 0, 1]


def test_split_collectives_work_in_groups():
    """Row-communicator allreduce, as NAS CG would use."""

    def prog(ctx):
        row = ctx.comm.split(color=ctx.rank // 2)
        vec = np.array([ctx.rank], dtype=np.int64).tobytes()
        total = row.allreduce(vec, _sum_op)
        return int(np.frombuffer(total, np.int64)[0])

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert results == [1, 1, 5, 5]


def test_split_validates_color():
    from repro.des.process import ProcessFailed

    def prog(ctx):
        ctx.comm.split(color=-3)

    with pytest.raises(ProcessFailed):
        run_job(prog, nranks=2, cluster=CLUSTER)


# ---- probe -----------------------------------------------------------------


def test_iprobe_peeks_without_consuming():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"probe-me", 1, tag=9)
        else:
            status = ctx.comm.probe(0, 9)  # blocking: message is queued
            assert status.count == 8
            peek = ctx.comm.iprobe(0, 9)
            assert peek is not None and peek.source == 0
            data, _status = ctx.comm.recv(0, 9)
            assert ctx.comm.iprobe(0, 9) is None  # consumed
            return data

    results = run_job(prog, nranks=2, cluster=CLUSTER).results
    assert results[1] == b"probe-me"


def test_iprobe_returns_none_when_empty():
    def prog(ctx):
        return ctx.comm.iprobe(ANY_SOURCE, ANY_TAG)

    assert run_job(prog, nranks=1, cluster=ClusterSpec(1, 1)).results == [None]


def test_probe_blocks_until_arrival():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.compute(1e-3)
            ctx.comm.send(b"late", 1, tag=2)
        else:
            status = ctx.comm.probe(ANY_SOURCE, 2)
            arrival = ctx.now
            data, _status = ctx.comm.recv(status.source, 2)
            return (arrival >= 1e-3, data)

    results = run_job(prog, nranks=2, cluster=CLUSTER).results
    assert results[1] == (True, b"late")


# ---- reduce_scatter / scan ---------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 4, 8])
def test_reduce_scatter_pow2(nranks):
    def prog(ctx):
        chunks = [
            np.array([ctx.rank * 10 + i], dtype=np.int64).tobytes()
            for i in range(nranks)
        ]
        out = ctx.comm.reduce_scatter(chunks, _sum_op)
        return int(np.frombuffer(out, np.int64)[0])

    results = run_job(prog, nranks=nranks, cluster=CLUSTER).results
    # chunk i reduced over ranks: sum_r (10r + i)
    base = 10 * sum(range(nranks))
    assert results == [base + i * nranks for i in range(nranks)]


@pytest.mark.parametrize("nranks", [3, 6])
def test_reduce_scatter_nonpow2_fallback(nranks):
    def prog(ctx):
        chunks = [
            np.array([ctx.rank + i], dtype=np.int64).tobytes()
            for i in range(nranks)
        ]
        out = ctx.comm.reduce_scatter(chunks, _sum_op)
        return int(np.frombuffer(out, np.int64)[0])

    results = run_job(prog, nranks=nranks, cluster=CLUSTER).results
    base = sum(range(nranks))
    assert results == [base + i * nranks for i in range(nranks)]


def test_reduce_scatter_validates_chunk_count():
    from repro.des.process import ProcessFailed

    def prog(ctx):
        ctx.comm.reduce_scatter([b"x"], _sum_op)

    with pytest.raises(ProcessFailed):
        run_job(prog, nranks=2, cluster=CLUSTER)


@pytest.mark.parametrize("nranks", [1, 2, 5, 8])
def test_scan_inclusive_prefix(nranks):
    def prog(ctx):
        vec = np.array([ctx.rank + 1], dtype=np.int64).tobytes()
        out = ctx.comm.scan(vec, _sum_op)
        return int(np.frombuffer(out, np.int64)[0])

    results = run_job(prog, nranks=nranks, cluster=CLUSTER).results
    assert results == [sum(range(1, r + 2)) for r in range(nranks)]
