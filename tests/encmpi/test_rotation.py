"""Key rotation manager tests."""

import pytest

from repro.api import run_job
from repro.encmpi import SecurityConfig
from repro.encmpi.rotation import RotatingKeyManager
from repro.models.cpu import ClusterSpec

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


def test_initial_epoch_established_collectively():
    def prog(ctx):
        mgr = RotatingKeyManager(ctx)
        return (mgr.epoch, mgr.key_fingerprint)

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert all(e == 0 for e, _fp in results)
    assert len({fp for _e, fp in results}) == 1  # same key everywhere


def test_rotation_triggers_on_traffic_threshold():
    def prog(ctx):
        mgr = RotatingKeyManager(ctx, messages_per_epoch=3)
        fp0 = mgr.key_fingerprint
        other = 1 - ctx.rank
        for i in range(3):
            if ctx.rank == 0:
                mgr.comm.send(bytes([i]), other)
            else:
                mgr.comm.recv(other)
        rotated = mgr.maybe_rotate()
        fp1 = mgr.key_fingerprint
        return (rotated, fp0 != fp1, mgr.epoch)

    results = run_job(prog, nranks=2, cluster=CLUSTER).results
    assert all(rotated for rotated, _c, _e in results)
    assert all(changed for _r, changed, _e in results)
    assert all(epoch == 1 for _r, _c, epoch in results)


def test_no_rotation_below_threshold():
    def prog(ctx):
        mgr = RotatingKeyManager(ctx, messages_per_epoch=1000)
        if ctx.rank == 0:
            mgr.comm.send(b"once", 1)
        else:
            mgr.comm.recv(0)
        return mgr.maybe_rotate()

    results = run_job(prog, nranks=2, cluster=CLUSTER).results
    assert results == [False, False]


def test_rotation_is_collective_even_if_one_rank_is_over():
    """Only rank 0 crosses the budget; all ranks must still rotate."""

    def prog(ctx):
        mgr = RotatingKeyManager(ctx, messages_per_epoch=2)
        if ctx.rank == 0:
            mgr.comm.send(b"a", 1)
            mgr.comm.send(b"b", 1)  # rank 0: 2 messages -> over
        elif ctx.rank == 1:
            mgr.comm.recv(0)
            mgr.comm.recv(0)
        # ranks 2,3 sent nothing
        rotated = mgr.maybe_rotate()
        return (rotated, mgr.epoch, mgr.key_fingerprint)

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert all(r for r, _e, _fp in results)
    assert len({fp for _r, _e, fp in results}) == 1


def test_traffic_flows_across_epochs():
    def prog(ctx):
        mgr = RotatingKeyManager(ctx, messages_per_epoch=1)
        other = 1 - ctx.rank
        received = []
        for round_no in range(3):
            if ctx.rank == 0:
                mgr.comm.send(f"epoch{mgr.epoch}".encode(), other)
            else:
                data, _status = mgr.comm.recv(other)
                received.append(data)
            mgr.maybe_rotate()
        return received

    results = run_job(prog, nranks=2, cluster=CLUSTER).results
    assert results[1] == [b"epoch0", b"epoch1", b"epoch2"]


def test_validation():
    def prog(ctx):
        RotatingKeyManager(ctx, messages_per_epoch=0)

    from repro.des.process import ProcessFailed

    with pytest.raises(ProcessFailed):
        run_job(prog, nranks=1, cluster=ClusterSpec(1, 1))


def test_config_carried_across_rotations():
    def prog(ctx):
        cfg = SecurityConfig(library="cryptopp", nonce_strategy="counter")
        mgr = RotatingKeyManager(ctx, cfg, messages_per_epoch=1)
        if ctx.rank == 0:
            mgr.comm.send(b"x", 1)
        else:
            mgr.comm.recv(0)
        mgr.maybe_rotate()
        return (mgr.comm.config.library, mgr.comm.config.nonce_strategy)

    results = run_job(prog, nranks=2, cluster=CLUSTER).results
    assert all(r == ("cryptopp", "counter") for r in results)