"""Tests for the future-work extensions: key exchange, replay
protection, pipelined encryption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.keyexchange import establish_session_key
from repro.encmpi.pipeline import PipelinedCrypto, plan_pipeline
from repro.encmpi.replay import ReplayError, ReplayGuard, counter_of_nonce
from repro.models.cpu import ClusterSpec, TWO_NODE_CLUSTER
from repro.models.cryptolib import get_profile
from repro.simmpi import run_program
from repro.util.units import MiB


# ---- key exchange -----------------------------------------------------------


def test_all_ranks_derive_same_key():
    def prog(ctx):
        return establish_session_key(ctx, key_bits=256, epoch=7)

    results = run_program(4, prog, cluster=ClusterSpec(2, 4)).results
    assert len(set(results)) == 1
    assert len(results[0]) == 32


def test_key_exchange_single_rank():
    def prog(ctx):
        return establish_session_key(ctx)

    res = run_program(1, prog, cluster=ClusterSpec(1, 1)).results
    assert len(res[0]) == 32


def test_epochs_give_different_keys():
    def prog(ctx):
        k0 = establish_session_key(ctx, epoch=0)
        k1 = establish_session_key(ctx, epoch=1)
        return (k0, k1)

    results = run_program(2, prog, cluster=TWO_NODE_CLUSTER).results
    assert results[0] == results[1]
    assert results[0][0] != results[0][1]


def test_exchanged_key_drives_encrypted_comm():
    payload = b"post-handshake secret"

    def prog(ctx):
        key = establish_session_key(ctx)
        enc = EncryptedComm(ctx, SecurityConfig().with_key(key))
        if ctx.rank == 0:
            enc.send(payload, 1)
        else:
            data, _status = enc.recv(0)
            return data

    assert run_program(2, prog, cluster=TWO_NODE_CLUSTER).results[1] == payload


def test_key_exchange_costs_time():
    def prog(ctx):
        t0 = ctx.now
        establish_session_key(ctx)
        return ctx.now - t0

    results = run_program(4, prog, cluster=ClusterSpec(2, 4)).results
    # At least two modexps per rank at ~1.5 ms each.
    assert all(t >= 2e-3 for t in results)


def test_bad_key_bits():
    def prog(ctx):
        return establish_session_key(ctx, key_bits=64)

    from repro.des.process import ProcessFailed

    with pytest.raises(ProcessFailed):
        run_program(1, prog, cluster=ClusterSpec(1, 1))


# ---- replay protection ---------------------------------------------------------


def test_replay_guard_accepts_in_order():
    g = ReplayGuard()
    for i in range(10):
        g.check(i)
    assert g.highest == 9


def test_replay_guard_rejects_duplicates():
    g = ReplayGuard()
    g.check(5)
    with pytest.raises(ReplayError, match="replayed"):
        g.check(5)


def test_replay_guard_accepts_window_reordering():
    g = ReplayGuard(window=8)
    g.check(10)
    g.check(7)  # late but within window
    g.check(9)
    with pytest.raises(ReplayError):
        g.check(7)  # second time


def test_replay_guard_rejects_ancient():
    g = ReplayGuard(window=8)
    g.check(100)
    with pytest.raises(ReplayError, match="older than the window"):
        g.check(91)
    g.check(93)  # 100-93=7 < 8: ok


def test_replay_guard_validation():
    with pytest.raises(ValueError):
        ReplayGuard(window=0)
    g = ReplayGuard()
    with pytest.raises(ReplayError):
        g.check(-1)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=60))
def test_replay_guard_never_accepts_a_counter_twice(counters):
    g = ReplayGuard(window=32)
    accepted = []
    for c in counters:
        try:
            g.check(c)
        except ReplayError:
            continue
        accepted.append(c)
    assert len(accepted) == len(set(accepted))


def test_counter_of_nonce():
    from repro.crypto.nonces import CounterNonces

    src = CounterNonces(sender_id=3)
    assert counter_of_nonce(src.next()) == 0
    assert counter_of_nonce(src.next()) == 1
    with pytest.raises(ValueError):
        counter_of_nonce(b"short")


def test_replay_guard_end_to_end_with_counter_nonces():
    """Counter nonces + guard: a replayed wire message is rejected."""

    def prog(ctx):
        cfg = SecurityConfig(nonce_strategy="counter")
        enc = EncryptedComm(ctx, cfg)
        if ctx.rank == 0:
            enc.send(b"m0", 1)
            enc.send(b"m1", 1)
        else:
            guard = ReplayGuard()
            wires = [ctx.comm.irecv(0).wait() for _ in range(2)]
            for w in wires:
                guard.check(counter_of_nonce(w[:12]))
                enc._decrypt_charged(w)
            # adversary replays the first message
            try:
                guard.check(counter_of_nonce(wires[0][:12]))
            except ReplayError:
                return "replay-blocked"
            return "replay-accepted"

    results = run_program(2, prog, cluster=TWO_NODE_CLUSTER).results
    assert results[1] == "replay-blocked"


def test_replay_guard_exact_window_boundary():
    """offset == window-1 is the last acceptable lag; offset == window
    is the first rejected one."""
    g = ReplayGuard(window=8)
    g.check(20)
    g.check(13)  # offset 7 == window-1: accepted
    with pytest.raises(ReplayError, match="older than the window"):
        g.check(12)  # offset 8 == window: rejected
    with pytest.raises(ReplayError, match="replayed"):
        g.check(13)


def test_replay_guard_window_slides_over_seen_bits():
    """Advancing highest must shift old accept-bits out, not wrap them
    onto new counters."""
    g = ReplayGuard(window=4)
    g.check(0)
    g.check(4)  # shifts counter 0's bit exactly off the edge
    with pytest.raises(ReplayError, match="older than the window"):
        g.check(0)  # now outside the window, not "free" again
    g.check(1)  # offset 3: still inside, never seen — accepted


def test_replay_window_config_requires_counter_nonces():
    with pytest.raises(ValueError, match="counter"):
        SecurityConfig(replay_window=16)  # default nonce_strategy=random
    with pytest.raises(ValueError, match="replay_window"):
        SecurityConfig(nonce_strategy="counter", replay_window=-1)
    cfg = SecurityConfig(nonce_strategy="counter", replay_window=16)
    assert cfg.with_key(bytes(32)).replay_window == 16


def test_encrypted_comm_accepts_reordered_delivery_within_window():
    """Tag-based retrieval order != send order: counters arrive 1 then
    0, which a window >= 2 must accept and window == 1 must reject."""

    def make_prog(window):
        def prog(ctx):
            cfg = SecurityConfig(nonce_strategy="counter", replay_window=window)
            enc = EncryptedComm(ctx, cfg)
            if ctx.rank == 0:
                enc.send(b"first", 1, tag=0)   # counter 0
                enc.send(b"second", 1, tag=1)  # counter 1
                return None
            out = [enc.recv(0, tag=1)[0]]  # counter 1 arrives first
            try:
                out.append(enc.recv(0, tag=0)[0])  # counter 0, lag 1
            except ReplayError:
                out.append("dropped")
            return out

        return prog

    wide = run_program(2, make_prog(8), cluster=TWO_NODE_CLUSTER).results
    assert wide[1] == [b"second", b"first"]
    narrow = run_program(2, make_prog(1), cluster=TWO_NODE_CLUSTER).results
    assert narrow[1] == [b"second", "dropped"]


def test_encrypted_comm_replay_guards_are_per_source():
    """Two senders reuse the same counter values; per-source windows
    must not cross-reject."""

    def prog(ctx):
        cfg = SecurityConfig(nonce_strategy="counter", replay_window=8)
        enc = EncryptedComm(ctx, cfg)
        if ctx.rank in (0, 1):
            enc.send(bytes([ctx.rank]) * 8, 2, tag=ctx.rank)
            return None
        a = enc.recv(0, tag=0)[0]  # counter 0 from source 0
        b = enc.recv(1, tag=1)[0]  # counter 0 from source 1
        return (a, b)

    res = run_program(3, prog, cluster=TWO_NODE_CLUSTER).results
    assert res[2] == (b"\x00" * 8, b"\x01" * 8)


# ---- pipelined encryption ----------------------------------------------------------


def test_plan_serial_when_single_core_or_small():
    p = get_profile("boringssl")
    plan = plan_pipeline(p, 1 * MiB, cores=1)
    assert plan.parallel_time == plan.serial_time
    small = plan_pipeline(p, 1024, cores=8)
    assert small.waves == 1


def test_plan_speedup_scales_with_cores():
    p = get_profile("boringssl")
    t1 = plan_pipeline(p, 8 * MiB, cores=1).parallel_time
    t4 = plan_pipeline(p, 8 * MiB, cores=4).parallel_time
    t8 = plan_pipeline(p, 8 * MiB, cores=8).parallel_time
    assert t8 < t4 < t1
    assert plan_pipeline(p, 8 * MiB, cores=8).speedup > 4


def test_plan_validation():
    p = get_profile("boringssl")
    with pytest.raises(ValueError):
        plan_pipeline(p, -1, 2)
    with pytest.raises(ValueError):
        plan_pipeline(p, 100, 0)
    with pytest.raises(ValueError):
        plan_pipeline(p, 100, 2, chunk_bytes=0)


@pytest.mark.parametrize("mode", ["real", "modeled"])
def test_pipelined_send_recv_roundtrip(mode):
    payload = bytes(range(256)) * 1024  # 256 KiB

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework=mode)))
        pipe = PipelinedCrypto(enc, chunk_bytes=64 * 1024)
        if ctx.rank == 0:
            plan = pipe.send(payload, 1)
            return plan.cores
        data, _plan = pipe.recv(0)
        return data

    results = run_program(2, prog, cluster=TWO_NODE_CLUSTER).results
    assert results[1] == payload
    assert results[0] >= 1


def test_pipelined_faster_than_serial_on_idle_node():
    """With 7 idle cores, the pipelined 2 MB ping-pong beats serial."""
    size = 2 * MiB
    times = {}

    def serial(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework="modeled")))
        if ctx.rank == 0:
            t0 = ctx.now
            enc.send(b"z" * size, 1)
            times["serial"] = ctx.now - t0
        else:
            enc.recv(0)

    def pipelined(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework="modeled")))
        pipe = PipelinedCrypto(enc)
        if ctx.rank == 0:
            t0 = ctx.now
            pipe.send(b"z" * size, 1)
            times["pipelined"] = ctx.now - t0
        else:
            pipe.recv(0)

    run_program(2, serial, cluster=TWO_NODE_CLUSTER)
    run_program(2, pipelined, cluster=TWO_NODE_CLUSTER)
    assert times["pipelined"] < times["serial"]
