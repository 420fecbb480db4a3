"""Substrate performance benchmarks: how fast is the simulator itself?

These track the harness's own costs (event throughput, message rate,
crypto throughput of the two AEAD backends) so regressions in the
simulation engine are caught alongside the reproduction results.
"""

import os

from benchmarks.conftest import run_once
from repro.api import run_job
from repro.crypto.aead import get_aead
from repro.crypto.backends import HAVE_OPENSSL
from repro.des.engine import Engine
from repro.des.process import Scheduler
from repro.models.cpu import TWO_NODE_CLUSTER


def test_engine_event_throughput(benchmark):
    def run():
        engine = Engine()
        count = 50_000
        remaining = [count]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                engine.schedule(1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()
        return count

    assert run_once(benchmark, run) == 50_000


def test_process_handoff_throughput(benchmark):
    def run():
        sched = Scheduler()

        def prog():
            me = sched.current()
            for _ in range(2_000):
                me.sleep(1e-6)

        for _ in range(4):
            sched.spawn(prog)
        sched.run()
        return sched.now

    assert run_once(benchmark, run) > 0


def test_simulated_message_rate(benchmark):
    def run():
        n = 500

        def prog(ctx):
            if ctx.rank == 0:
                for i in range(n):
                    ctx.comm.send(b"x" * 64, 1, tag=0)
            else:
                for i in range(n):
                    ctx.comm.recv(0, 0)

        run_job(prog, nranks=2, cluster=TWO_NODE_CLUSTER)
        return n

    assert run_once(benchmark, run) == 500


def test_pure_python_gcm_throughput(benchmark):
    aead = get_aead(bytes(32), "pure")
    payload = os.urandom(4096)
    nonce = bytes(12)

    def run():
        ct = aead.seal(nonce, payload)
        return aead.open(nonce, ct)

    assert run_once(benchmark, run) == payload


def test_openssl_gcm_throughput(benchmark):
    if not HAVE_OPENSSL:
        import pytest

        pytest.skip("cryptography not installed")
    aead = get_aead(bytes(32), "openssl")
    payload = os.urandom(1 << 20)
    nonce = bytes(12)

    def run():
        ct = aead.seal(nonce, payload)
        return aead.open(nonce, ct)

    assert run_once(benchmark, run) == payload
