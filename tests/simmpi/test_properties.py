"""Property-based tests: MPI semantics under randomized traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_job
from repro.models.cpu import ClusterSpec

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)

# Sizes crossing all transport regimes: tiny eager, flow-cutoff eager,
# rendezvous.
size_strategy = st.sampled_from([0, 1, 100, 2048, 4096, 70_000, 200_000])


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(size_strategy, min_size=1, max_size=10))
def test_fifo_matching_for_any_size_sequence(sizes):
    """Same-route same-tag messages always match in send order,
    whatever mix of eager/flow/rendezvous sizes is sent."""

    def prog(ctx):
        if ctx.rank == 0:
            for i, s in enumerate(sizes):
                ctx.comm.send(bytes([i]) + b"\x00" * s, 1, tag=0)
        else:
            seen = []
            for _ in sizes:
                data, _status = ctx.comm.recv(0, 0)
                seen.append(data[0])
            return seen

    res = run_job(prog, nranks=2, cluster=CLUSTER)
    assert res.results[1] == list(range(len(sizes)))


@settings(max_examples=10, deadline=None)
@given(
    nranks=st.sampled_from([2, 3, 5, 8]),
    payloads=st.lists(st.binary(max_size=300), min_size=1, max_size=4),
)
def test_alltoall_is_a_transpose(nranks, payloads):
    """alltoall(chunks)[r][s] == chunks sent by s to r, for arbitrary
    payload contents and rank counts."""

    def prog(ctx):
        chunks = [
            bytes([ctx.rank, d]) + payloads[(ctx.rank + d) % len(payloads)]
            for d in range(nranks)
        ]
        return ctx.comm.alltoall(chunks)

    results = run_job(prog, nranks=nranks, cluster=ClusterSpec(2, 4)).results
    for r in range(nranks):
        for s in range(nranks):
            expected = bytes([s, r]) + payloads[(s + r) % len(payloads)]
            assert results[r][s] == expected


@settings(max_examples=10, deadline=None)
@given(
    nranks=st.sampled_from([2, 4, 7]),
    payload=st.binary(max_size=1000),
    root=st.integers(0, 6),
)
def test_bcast_delivers_exact_payload(nranks, payload, root):
    root = root % nranks

    def prog(ctx):
        data = payload if ctx.rank == root else None
        return ctx.comm.bcast(data, root, nbytes=len(payload))

    results = run_job(prog, nranks=nranks, cluster=ClusterSpec(2, 4)).results
    assert all(r == payload for r in results)


@settings(max_examples=12, deadline=None)
@given(
    nranks=st.sampled_from([2, 3, 4, 6, 8]),
    chunk=st.binary(max_size=400),
)
def test_allgather_matches_naive_reference(nranks, chunk):
    """allgather == every rank ends up with [data of rank 0..p-1],
    across both the recursive-doubling and ring algorithms."""

    def prog(ctx):
        return ctx.comm.allgather(bytes([ctx.rank]) + chunk)

    results = run_job(prog, nranks=nranks, cluster=ClusterSpec(2, 4)).results
    expected = [bytes([s]) + chunk for s in range(nranks)]
    assert all(r == expected for r in results)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@settings(max_examples=12, deadline=None)
@given(
    nranks=st.sampled_from([2, 3, 5, 8]),
    root=st.integers(0, 7),
    size=st.integers(1, 600),
)
def test_reduce_matches_naive_reference(nranks, root, size):
    """Tree reduce == folding the op over per-rank payloads in rank
    order, for any root."""
    root = root % nranks

    def prog(ctx):
        return ctx.comm.reduce(bytes([ctx.rank + 1]) * size, _xor, root=root)

    results = run_job(prog, nranks=nranks, cluster=ClusterSpec(2, 4)).results
    expected = bytes([0]) * size
    for r in range(nranks):
        expected = _xor(expected, bytes([r + 1]) * size)
    assert results[root] == expected
    assert all(results[r] is None for r in range(nranks) if r != root)


@settings(max_examples=12, deadline=None)
@given(
    nranks=st.sampled_from([2, 3, 4, 7]),
    root=st.integers(0, 6),
    payloads=st.lists(st.binary(max_size=200), min_size=1, max_size=3),
)
def test_gather_matches_naive_reference(nranks, root, payloads):
    """gather at any root == the identity list of per-rank payloads
    (unequal sizes included — the packing headers must not leak)."""
    root = root % nranks

    def prog(ctx):
        return ctx.comm.gather(payloads[ctx.rank % len(payloads)], root=root)

    results = run_job(prog, nranks=nranks, cluster=ClusterSpec(2, 4)).results
    expected = [payloads[r % len(payloads)] for r in range(nranks)]
    assert results[root] == expected
    assert all(results[r] is None for r in range(nranks) if r != root)


@settings(max_examples=8, deadline=None)
@given(seed_sizes=st.lists(st.integers(0, 50_000), min_size=2, max_size=6))
def test_makespan_is_deterministic(seed_sizes):
    """The same traffic pattern always yields the same virtual makespan."""

    def prog(ctx):
        other = 1 - ctx.rank
        for s in seed_sizes:
            if ctx.rank == 0:
                ctx.comm.send(b"\x00" * s, other, tag=1)
                ctx.comm.recv(other, 2)
            else:
                ctx.comm.recv(other, 1)
                ctx.comm.send(b"\x00" * s, other, tag=2)
        return ctx.now

    a = run_job(prog, nranks=2, cluster=CLUSTER).duration
    b = run_job(prog, nranks=2, cluster=CLUSTER).duration
    assert a == b
