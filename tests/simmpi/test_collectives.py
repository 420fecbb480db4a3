"""Correctness tests for the collective algorithms (all code paths)."""

import numpy as np
import pytest

from repro.api import run_job
from repro.models.cpu import ClusterSpec
from repro.simmpi.collectives.common import (
    binomial_children,
    binomial_parent,
    is_power_of_two,
    next_power_of_two,
    split_chunks,
    subtree_span,
)
from repro.util.units import KiB

CLUSTER = ClusterSpec(nodes=4, cores_per_node=4)


def _run(nranks, prog):
    return run_job(prog, nranks=nranks, cluster=CLUSTER).results


# ---- helpers ---------------------------------------------------------------


def test_split_chunks_even_and_uneven():
    assert split_chunks(b"abcdef", 3) == [b"ab", b"cd", b"ef"]
    assert split_chunks(b"abcdefg", 3) == [b"abc", b"de", b"fg"]
    assert split_chunks(b"", 3) == [b"", b"", b""]
    assert b"".join(split_chunks(bytes(range(100)), 7)) == bytes(range(100))
    with pytest.raises(ValueError):
        split_chunks(b"x", 0)


def test_binomial_tree_structure():
    # p=8: root's children are 4, 2, 1; node 4's are 6, 5; node 6's is 7.
    assert binomial_children(0, 8) == [4, 2, 1]
    assert binomial_children(4, 8) == [6, 5]
    assert binomial_children(6, 8) == [7]
    assert binomial_children(7, 8) == []
    assert binomial_parent(6) == 4
    assert binomial_parent(5) == 4
    assert binomial_parent(4) == 0
    with pytest.raises(ValueError):
        binomial_parent(0)


def test_binomial_tree_covers_all_ranks():
    for p in (2, 3, 5, 8, 13, 16):
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for c in binomial_children(v, p):
                assert c not in seen
                seen.add(c)
                frontier.append(c)
        assert seen == set(range(p))


def test_subtree_span():
    assert subtree_span(0, 8) == (0, 8)
    assert subtree_span(4, 8) == (4, 8)
    assert subtree_span(6, 8) == (6, 8)
    assert subtree_span(2, 8) == (2, 4)
    assert subtree_span(5, 6) == (5, 6)


def test_power_helpers():
    assert next_power_of_two(1) == 1
    assert next_power_of_two(5) == 8
    assert is_power_of_two(16)
    assert not is_power_of_two(12)
    with pytest.raises(ValueError):
        next_power_of_two(0)


# ---- bcast ----------------------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("size", [0, 1, 100, 20 * KiB])
def test_bcast_all_roots_all_sizes(nranks, size):
    payload = bytes(i % 251 for i in range(size))
    root = nranks - 1

    def prog(ctx):
        data = payload if ctx.rank == root else None
        return ctx.comm.bcast(data, root, nbytes=size)

    results = _run(nranks, prog)
    assert all(r == payload for r in results)


def test_bcast_large_uses_scatter_allgather_path():
    """A 64 KiB bcast crosses the 12 KiB threshold; verify content."""
    payload = np.arange(64 * KiB, dtype=np.uint8).tobytes()

    def prog(ctx):
        data = payload if ctx.rank == 0 else None
        return ctx.comm.bcast(data, 0, nbytes=len(payload))

    assert all(r == payload for r in _run(8, prog))


def test_bcast_requires_nbytes_on_nonroot():
    from repro.des.process import ProcessFailed

    def prog(ctx):
        data = b"abc" if ctx.rank == 0 else None
        return ctx.comm.bcast(data, 0)

    with pytest.raises(ProcessFailed):
        _run(2, prog)


# ---- gather / scatter --------------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 6, 8])
def test_gather(nranks):
    def prog(ctx):
        return ctx.comm.gather(f"r{ctx.rank}".encode(), root=0)

    results = _run(nranks, prog)
    assert results[0] == [f"r{i}".encode() for i in range(nranks)]
    assert all(r is None for r in results[1:])


def test_gather_uneven_sizes():
    def prog(ctx):
        return ctx.comm.gather(b"x" * ctx.rank, root=1)

    results = _run(5, prog)
    assert results[1] == [b"x" * i for i in range(5)]


@pytest.mark.parametrize("nranks", [1, 2, 6, 8])
def test_scatter(nranks):
    chunks = [f"chunk{i}".encode() for i in range(nranks)]

    def prog(ctx):
        data = chunks if ctx.rank == 0 else None
        return ctx.comm.scatter(data, root=0)

    assert _run(nranks, prog) == chunks


def test_scatter_wrong_chunk_count():
    from repro.des.process import ProcessFailed

    def prog(ctx):
        data = [b"a"] if ctx.rank == 0 else None
        return ctx.comm.scatter(data, root=0)

    with pytest.raises(ProcessFailed):
        _run(2, prog)


# ---- allgather ---------------------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 4, 8])  # power of two: rec. doubling
def test_allgather_recursive_doubling(nranks):
    def prog(ctx):
        return ctx.comm.allgather(bytes([ctx.rank]) * 4)

    results = _run(nranks, prog)
    expected = [bytes([i]) * 4 for i in range(nranks)]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("nranks", [3, 5, 7])  # non-pow2: ring
def test_allgather_ring_nonpow2(nranks):
    def prog(ctx):
        return ctx.comm.allgather(f"<{ctx.rank}>".encode())

    results = _run(nranks, prog)
    expected = [f"<{i}>".encode() for i in range(nranks)]
    assert all(r == expected for r in results)


def test_allgather_large_uses_ring():
    per_rank = 128 * KiB  # 8 ranks -> 1 MiB total > 512 KiB threshold

    def prog(ctx):
        return ctx.comm.allgather(bytes([ctx.rank]) * per_rank)

    results = _run(8, prog)
    assert results[0] == [bytes([i]) * per_rank for i in range(8)]


# ---- alltoall -----------------------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 5, 8])
def test_alltoall_small(nranks):
    def prog(ctx):
        chunks = [f"{ctx.rank}->{d}".encode() for d in range(nranks)]
        return ctx.comm.alltoall(chunks)

    results = _run(nranks, prog)
    for r in range(nranks):
        assert results[r] == [f"{s}->{r}".encode() for s in range(nranks)]


@pytest.mark.parametrize("nranks", [4, 6])
def test_alltoall_large_pairwise(nranks):
    per_pair = 64 * KiB

    def prog(ctx):
        chunks = [bytes([(ctx.rank * 16 + d) % 251]) * per_pair for d in range(nranks)]
        return ctx.comm.alltoall(chunks)

    results = _run(nranks, prog)
    for r in range(nranks):
        assert results[r] == [
            bytes([(s * 16 + r) % 251]) * per_pair for s in range(nranks)
        ]


def test_alltoallv_unequal_sizes():
    def prog(ctx):
        chunks = [bytes([ctx.rank]) * (d + 1) for d in range(ctx.size)]
        return ctx.comm.alltoallv(chunks)

    results = _run(4, prog)
    for r in range(4):
        assert results[r] == [bytes([s]) * (r + 1) for s in range(4)]


def test_alltoall_wrong_chunk_count():
    from repro.des.process import ProcessFailed

    def prog(ctx):
        return ctx.comm.alltoall([b"x"])

    with pytest.raises(ProcessFailed):
        _run(2, prog)


# ---- reduce / allreduce -----------------------------------------------------------


def _sum_op(a: bytes, b: bytes) -> bytes:
    return (
        np.frombuffer(a, dtype=np.int64) + np.frombuffer(b, dtype=np.int64)
    ).tobytes()


@pytest.mark.parametrize("nranks", [1, 2, 5, 8])
def test_reduce_sum(nranks):
    def prog(ctx):
        vec = np.full(4, ctx.rank + 1, dtype=np.int64).tobytes()
        return ctx.comm.reduce(vec, _sum_op, root=0)

    results = _run(nranks, prog)
    expected = np.full(4, sum(range(1, nranks + 1)), dtype=np.int64)
    assert np.array_equal(np.frombuffer(results[0], dtype=np.int64), expected)
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 6, 8])  # incl. non-pow2 fold
def test_allreduce_sum(nranks):
    def prog(ctx):
        vec = np.array([ctx.rank, ctx.rank * 2], dtype=np.int64).tobytes()
        return ctx.comm.allreduce(vec, _sum_op)

    results = _run(nranks, prog)
    s = sum(range(nranks))
    expected = np.array([s, 2 * s], dtype=np.int64)
    for r in results:
        assert np.array_equal(np.frombuffer(r, dtype=np.int64), expected)


def test_allreduce_max_op():
    def prog(ctx):
        v = np.array([ctx.rank], dtype=np.int64).tobytes()
        return ctx.comm.allreduce(
            v,
            lambda a, b: np.maximum(
                np.frombuffer(a, np.int64), np.frombuffer(b, np.int64)
            ).tobytes(),
        )

    results = _run(6, prog)
    assert all(np.frombuffer(r, np.int64)[0] == 5 for r in results)


def test_reduce_op_validation():
    from repro.des.process import ProcessFailed

    def prog(ctx):
        return ctx.comm.allreduce(b"ab", lambda a, b: "not-bytes")

    with pytest.raises(ProcessFailed):
        _run(2, prog)


# ---- barrier ---------------------------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 5, 8])
def test_barrier_synchronizes(nranks):
    def prog(ctx):
        # Rank 0 works for 1 ms before the barrier; everyone must leave
        # the barrier no earlier than that.
        if ctx.rank == 0:
            ctx.compute(1e-3)
        ctx.comm.barrier()
        return ctx.now

    results = _run(nranks, prog)
    assert all(t >= 1e-3 or nranks == 1 for t in results)


def test_consecutive_collectives_do_not_cross_talk():
    """Back-to-back collectives with identical shapes must not steal
    each other's messages (per-invocation tag blocks)."""

    def prog(ctx):
        a = ctx.comm.allgather(bytes([ctx.rank]))
        b = ctx.comm.allgather(bytes([ctx.rank * 2]))
        return (a, b)

    results = _run(4, prog)
    for a, b in results:
        assert a == [bytes([i]) for i in range(4)]
        assert b == [bytes([i * 2]) for i in range(4)]
