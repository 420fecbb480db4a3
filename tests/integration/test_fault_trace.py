"""Fault injection × structured tracing: attacks leave explicit events.

The point of the trace layer for security work: a corrupted envelope
must surface as an ``auth_fail`` event and a duplicated one as a
``replay_drop`` — not just as an exception somewhere in a rank program.
"""

import pytest

from repro.api import run_job
from repro.crypto.errors import AuthenticationError
from repro.encmpi import EncryptedComm, SecurityConfig
from repro.encmpi.replay import ReplayError
from repro.models.cpu import ClusterSpec
from repro.simmpi.faults import FaultAction, FaultInjector, FaultPlan
from repro.simmpi.tracing import TraceRecorder

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


def test_corruption_emits_auth_fail_event():
    plan = FaultPlan(corrupt=1.0, src=0, dst=1, corrupt_bit=300)
    rec = TraceRecorder()

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig())
        if ctx.rank == 0:
            enc.send(b"\x00" * 64, 1, tag=0)
            return "sent"
        try:
            enc.recv(0, 0)
            return "accepted"
        except AuthenticationError:
            return "rejected"

    res = run_job(prog, nranks=2, cluster=CLUSTER, trace=rec, faults=plan)
    assert res.results == ["sent", "rejected"]
    (fail,) = rec.events_in("aead", "auth_fail")
    assert fail.rank == 1
    assert rec.rank_counters(1).auth_failures == 1
    # the successful seal on rank 0 is still there
    assert len(rec.events_in("aead", "seal")) == 1
    assert not rec.events_in("aead", "open")  # rejection, not decryption


def test_duplicate_emits_replay_drop_event():
    """With replay_window configured, the duplicated envelope is dropped
    by the EncryptedComm itself — no hand-rolled guard in the program —
    and the drop is visible in the trace."""
    plan = FaultPlan(duplicate=1.0, src=0, dst=1)
    rec = TraceRecorder()
    config = SecurityConfig(nonce_strategy="counter", replay_window=16)

    def prog(ctx):
        enc = EncryptedComm(ctx, config)
        if ctx.rank == 0:
            enc.send(b"pay me once", 1, tag=0)
            return ["sent"]
        outcomes = []
        for _ in range(2):  # original + duplicate both arrive
            try:
                enc.recv(0, 0)
                outcomes.append("accepted")
            except ReplayError:
                outcomes.append("replay-blocked")
        return outcomes

    res = run_job(prog, nranks=2, cluster=CLUSTER, trace=rec, faults=plan)
    assert res.results[1] == ["accepted", "replay-blocked"]
    (drop,) = rec.events_in("aead", "replay_drop")
    assert drop.rank == 1
    assert drop.data["src"] == 0
    assert drop.data["counter"] == 0
    assert rec.rank_counters(1).replay_drops == 1
    # exactly one open: the original; the replay never reached the AEAD
    assert len(rec.events_in("aead", "open")) == 1


def test_duplicate_without_replay_window_is_accepted_twice():
    """The paper's threat model (no replay protection): both copies
    decrypt fine and no replay_drop event appears — the gap the
    replay_window option closes."""
    plan = FaultPlan(duplicate=1.0, src=0, dst=1)
    rec = TraceRecorder()
    config = SecurityConfig(nonce_strategy="counter")  # replay_window=0

    def prog(ctx):
        enc = EncryptedComm(ctx, config)
        if ctx.rank == 0:
            enc.send(b"pay me twice", 1, tag=0)
            return None
        return [enc.recv(0, 0)[0] for _ in range(2)]

    res = run_job(prog, nranks=2, cluster=CLUSTER, trace=rec, faults=plan)
    assert res.results[1] == [b"pay me twice", b"pay me twice"]
    assert not rec.events_in("aead", "replay_drop")
    assert len(rec.events_in("aead", "open")) == 2


def test_duplicate_clone_preserves_payload_bytes():
    """The injector's clone must carry the original's payload_bytes
    (collective-internal envelopes pack headers, so len(payload) would
    over-count) — otherwise duplicated traffic shows payload > wire."""
    from repro.simmpi.message import Envelope

    env = Envelope(src=0, dst=1, tag=0, comm_id=0,
                   payload=b"\x00\x00\x00\x64" + b"g" * 100,
                   wire_bytes=100, payload_bytes=100)
    injector = FaultInjector(lambda _env: FaultAction.DUPLICATE)
    original, clone = injector.apply(env)
    assert clone.payload_bytes == original.payload_bytes == 100
    assert clone.wire_bytes == 100
