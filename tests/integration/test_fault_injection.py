"""Fault-injection integration tests: the threat the paper's integrity
guarantee exists for, exercised end-to-end."""

import pytest

from repro.api import run_job
from repro.des.engine import DeadlockError
from repro.des.process import ProcessFailed
from repro.encmpi import EncryptedComm, SecurityConfig
from repro.models.cpu import ClusterSpec
from repro.simmpi.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    corrupt_every_nth,
    target_route,
)

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


class _Injecting(FaultPlan):
    """A FaultPlan handing its job one prepared injector, whose ledger
    the test reads after the run."""

    def __init__(self, injector):
        super().__init__()
        object.__setattr__(self, "injector", injector)

    def build(self):
        return self.injector


def test_plain_mpi_silently_accepts_corruption():
    """Without encryption a flipped bit is just... different data."""
    injector = FaultInjector(target_route(0, 1, FaultAction.CORRUPT))

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"\x00" * 64, 1, tag=0)
        else:
            data, _status = ctx.comm.recv(0, 0)
            return data

    res = run_job(prog, nranks=2, cluster=CLUSTER, faults=_Injecting(injector))
    assert res.results[1] != b"\x00" * 64  # corrupted...
    assert len(res.results[1]) == 64  # ...and accepted!
    assert injector.injected[FaultAction.CORRUPT] == 1


def test_encrypted_mpi_rejects_corruption():
    """The same attack against AES-GCM framing raises in the receiver."""
    plan = FaultPlan(corrupt=1.0, src=0, dst=1, corrupt_bit=200)

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig())
        if ctx.rank == 0:
            enc.send(b"\x00" * 64, 1, tag=0)
        else:
            enc.recv(0, 0)

    with pytest.raises(ProcessFailed, match="AuthenticationError|tamper"):
        run_job(prog, nranks=2, cluster=CLUSTER, faults=plan)


def test_dropped_message_surfaces_as_hang():
    plan = FaultPlan(drop=1.0, src=0, dst=1)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"gone", 1, tag=0)
        else:
            ctx.comm.recv(0, 0)

    with pytest.raises(DeadlockError):
        run_job(prog, nranks=2, cluster=CLUSTER, faults=plan)


def test_duplicate_detected_by_replay_guard():
    from repro.encmpi.replay import ReplayError, ReplayGuard, counter_of_nonce

    plan = FaultPlan(duplicate=1.0, src=0, dst=1)

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(nonce_strategy="counter"))
        if ctx.rank == 0:
            enc.send(b"pay me once", 1, tag=0)
        else:
            guard = ReplayGuard()
            outcomes = []
            for _ in range(2):  # original + duplicate both arrive
                wire = ctx.comm.irecv(0, 0).wait()
                try:
                    guard.check(counter_of_nonce(bytes(wire[:12])))
                    outcomes.append("accepted")
                except ReplayError:
                    outcomes.append("replay-blocked")
            return outcomes

    res = run_job(prog, nranks=2, cluster=CLUSTER, faults=plan)
    assert res.results[1] == ["accepted", "replay-blocked"]


def test_corrupt_every_nth_policy():
    injector = FaultInjector(corrupt_every_nth(3))
    n_msgs = 7

    def prog(ctx):
        if ctx.rank == 0:
            for i in range(n_msgs):
                ctx.comm.send(bytes([i]) * 8, 1, tag=0)
        else:
            bad = 0
            for i in range(n_msgs):
                data, _status = ctx.comm.recv(0, 0)
                if data != bytes([i]) * 8:
                    bad += 1
            return bad

    res = run_job(prog, nranks=2, cluster=CLUSTER, faults=_Injecting(injector))
    assert res.results[1] == 3  # messages 0, 3, 6
    assert injector.injected[FaultAction.CORRUPT] == 3


def test_policy_validation():
    with pytest.raises(ValueError):
        corrupt_every_nth(0)
