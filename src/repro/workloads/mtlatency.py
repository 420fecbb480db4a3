"""OMB-Py-style multi-threaded latency (osu_latency_mt pattern).

OSU's multi-threaded latency test keeps *T* receiver threads serving
one sender: at any moment *T* requests are in flight and each gets its
reply before the next round.  The simulator models a thread as a
concurrent in-flight message — per round the client posts ``channels``
non-blocking sends, waits for all of them, then collects ``channels``
replies (one per server "thread").  On a clean fat link extra channels
are nearly free; on the hostile fabrics (WAN jitter, IoT's narrow
uplink) they queue behind each other and the per-round latency grows —
which is exactly the effect the ``hostile`` experiment sweeps.
"""

from __future__ import annotations

# verify-sizes: 2  (a strictly two-rank exchange; ranks >= 2 never exist)

from repro.encmpi import CryptoPlan, SecurityConfig
from repro.encmpi.plan import workload_plan
from repro.models.cpu import parse_cluster_spec
from repro.models.network import FabricSpec
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.simmpi.world import run_job

#: Two nodes, client and server on different nodes (as in ping-pong).
MTLATENCY_CLUSTER = parse_cluster_spec("2x8")

#: One tag for every channel: the channels model concurrent threads on
#: one connection, and FIFO matching per (src, tag) is exactly MPI's
#: guarantee for that shape.
TAG_MTLATENCY = 13

DEFAULT_CHANNELS = 4
DEFAULT_ITERS = 4


def mtlatency_round_time(
    size: int,
    *,
    channels: int = DEFAULT_CHANNELS,
    network: str | FabricSpec = "ethernet",
    library: str | None = None,
    key_bits: int = 256,
    iters: int = DEFAULT_ITERS,
    crypto: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> float:
    """Mean round latency in seconds: one *channels*-wide send batch
    plus its replies, averaged over *iters* rounds (one warmup round
    excluded).  ``library=None`` is the plain-MPI baseline.
    """
    if size < 1:
        raise ValueError(f"message size must be >= 1, got {size}")
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    payload = b"\x4d" * size
    out = [0.0]
    plan = workload_plan(library, crypto)
    security = None if plan is None \
        else SecurityConfig(key_bits=key_bits, crypto=plan)

    def co_program(ctx):
        comm = ctx.comm if ctx.enc is None else ctx.enc
        if ctx.rank == 0:  # client
            for _ in range(1):  # warmup round (excluded from timing)
                reqs = []
                for _ in range(channels):
                    reqs.append((yield from comm.co_isend(
                        payload, 1, tag=TAG_MTLATENCY)))
                yield from comm.co_waitall(reqs)
                yield from comm.co_waitall(
                    [comm.irecv(1, TAG_MTLATENCY) for _ in range(channels)])
            t0 = ctx.now
            for _ in range(iters):
                reqs = []
                for _ in range(channels):
                    reqs.append((yield from comm.co_isend(
                        payload, 1, tag=TAG_MTLATENCY)))
                yield from comm.co_waitall(reqs)
                yield from comm.co_waitall(
                    [comm.irecv(1, TAG_MTLATENCY) for _ in range(channels)])
            out[0] = (ctx.now - t0) / iters
        else:  # server: `channels` concurrent service threads
            for _ in range(iters + 1):
                yield from comm.co_waitall(
                    [comm.irecv(0, TAG_MTLATENCY) for _ in range(channels)])
                reqs = []
                for _ in range(channels):
                    reqs.append((yield from comm.co_isend(
                        payload, 0, tag=TAG_MTLATENCY)))
                yield from comm.co_waitall(reqs)

    run_job(
        co_program,
        nranks=2,
        security=security,
        network=network,
        cluster=MTLATENCY_CLUSTER,
        faults=faults,
        resilience=resilience,
    )
    return out[0]
