"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's tables: they quantify the knobs the paper
discusses qualitatively — key length, nonce discipline, the collective
algorithm switch points, and the §V-C multi-core encryption remedy.
"""

import pytest

from benchmarks.conftest import run_once
from repro.encmpi.pipeline import plan_pipeline
from repro.models.cryptolib import get_profile
from repro.util.units import KiB, MiB
from repro.workloads.pingpong import pingpong_oneway_time


def test_ablation_key_length_128_vs_256(benchmark):
    """§III-A: 'longer key length means better security ... but also
    slower speed'; the paper found both lengths show the same trends."""

    def run():
        return {
            bits: pingpong_oneway_time(
                2 * MiB, network="ethernet", library="boringssl", key_bits=bits
            )
            for bits in (128, 256)
        }

    times = run_once(benchmark, run)
    assert times[128] < times[256]
    # Same trend: both are far above the baseline, ratio is modest.
    assert times[256] / times[128] < 1.5


def test_ablation_nonce_strategy(benchmark):
    """Counter nonces skip the per-message RAND_bytes call.  The cost
    model charges framing identically (the dominant term is buffer
    handling), so the wire results must be unaffected — this pins down
    that nonce strategy is a *security* choice, not a performance one."""
    from repro.api import run_job
    from repro.encmpi import EncryptedComm, SecurityConfig
    from repro.models.cpu import ClusterSpec

    def run():
        out = {}
        for strategy in ("random", "counter"):
            def prog(ctx, strategy=strategy):
                enc = EncryptedComm(
                    ctx, SecurityConfig(nonce_strategy=strategy)
                )
                if ctx.rank == 0:
                    enc.send(b"x" * 4096, 1)
                    return ctx.now
                enc.recv(0)
                return ctx.now

            res = run_job(prog, nranks=2, cluster=ClusterSpec(2, 2))
            out[strategy] = res.results[1]
        return out

    times = run_once(benchmark, run)
    assert times["random"] == pytest.approx(times["counter"], rel=1e-9)


def test_ablation_pipeline_chunk_size(benchmark):
    """§V-C remedy: sweep the encryption chunk size on 8 cores.  Too
    large -> no parallelism; too small -> framing overhead; the sweet
    spot sits in between."""
    profile = get_profile("boringssl", "mvapich")

    def run():
        return {
            chunk: plan_pipeline(profile, 4 * MiB, cores=8, chunk_bytes=chunk)
            for chunk in (4 * MiB, 1 * MiB, 256 * KiB, 64 * KiB, 4 * KiB)
        }

    plans = run_once(benchmark, run)
    assert plans[4 * MiB].speedup == pytest.approx(1.0)
    best = min(p.parallel_time for p in plans.values())
    assert plans[256 * KiB].parallel_time == pytest.approx(best, rel=0.35)
    # Tiny chunks pay per-call framing: slower than the sweet spot.
    assert plans[4 * KiB].parallel_time > plans[256 * KiB].parallel_time


def test_ablation_collective_algorithm_thresholds(benchmark):
    """MPICH's bcast switches from binomial to scatter+allgather at
    12 KiB: verify the large algorithm actually wins above the switch
    (this is why the simulator implements both)."""
    import importlib

    from repro.api import run_job
    from repro.models.cpu import ClusterSpec

    # The collectives package re-exports the bcast *function* under the
    # submodule's name; fetch the module itself to reach the threshold.
    bcast_mod = importlib.import_module("repro.simmpi.collectives.bcast")

    cluster = ClusterSpec(nodes=8, cores_per_node=4)

    def time_bcast(size, force):
        payload = b"\x00" * size

        def prog(ctx):
            original = bcast_mod.BCAST_LONG_THRESHOLD
            bcast_mod.BCAST_LONG_THRESHOLD = force
            try:
                data = payload if ctx.rank == 0 else None
                ctx.comm.bcast(data, 0, nbytes=size)
            finally:
                bcast_mod.BCAST_LONG_THRESHOLD = original
            return ctx.now

        res = run_job(prog, nranks=32, network="ethernet", cluster=cluster)
        return max(res.results)

    def run():
        size = 1 * MiB
        return {
            "binomial": time_bcast(size, force=10**9),  # never switch
            "scatter_allgather": time_bcast(size, force=0),  # always switch
        }

    times = run_once(benchmark, run)
    assert times["scatter_allgather"] < times["binomial"]


def test_ablation_eager_vs_rendezvous_boundary(benchmark):
    """The one-way time curve must be continuous-ish across the eager
    threshold — a discontinuity would poison every larger result."""

    def run():
        below = pingpong_oneway_time(64 * KiB, network="ethernet")
        above = pingpong_oneway_time(64 * KiB + 4096, network="ethernet")
        return below, above

    below, above = run_once(benchmark, run)
    assert above > below
    assert above < below * 1.5
