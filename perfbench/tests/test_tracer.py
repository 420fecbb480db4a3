"""Tests of the benchmark's tracer, output checks and recorded digests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import workloads
from perfbench.tracer import Tracer, traced

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SMALL_API = {"n_jobs": 9, "n_queries": 20, "calibrate": False}
SMALL_CAMPAIGN = {"selection": ["table1", "fig3"]}


def traced_unit(workload: str, params: dict, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PERFBENCH_TMP=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", workload,
         "--seed", "3", "--trace", "--params", json.dumps(params)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if not k.endswith("_s") and not k.endswith("_us")}


@pytest.mark.parametrize("workload,params", [
    ("api-jobs", SMALL_API), ("campaign-fast", SMALL_CAMPAIGN)])
def test_layer_counts_repeat_and_self_times_add_up(workload, params,
                                                   tmp_path):
    first = traced_unit(workload, params, tmp_path)
    second = traced_unit(workload, params, tmp_path)
    assert first["failed"] == second["failed"] == 0
    assert counts(first["layers"]) == counts(second["layers"])
    for unit in (first, second):
        layers = unit["layers"]
        self_total = sum(v for k, v in layers.items()
                         if k.endswith(".self_s")
                         and not k.startswith("harness."))
        assert self_total + layers["harness.unattributed_s"] == pytest.approx(
            layers["harness.traced_wall_s"], rel=1e-9)
        assert layers["des.engine.events"] > 0
        assert layers["simmpi.transport.sends"] > 0
    if workload == "api-jobs":
        layers = first["layers"]
        assert layers["analysis.verify.calls"] == SMALL_API["n_jobs"]
        assert layers["crypto.aead.seals"] > 0
        assert layers["crypto.aead.auth_failures"] == 0
        assert layers["des.process.thread_ranks"] > 0
        assert layers["des.process.coro_ranks"] > 0
    else:
        assert first["layers"]["experiments.campaign.hit_ratio"] == 0.5


def test_corrupted_digest_makes_fail_frac_nonzero(tmp_path):
    unit = workloads.run_registry(
        "campaign-fast", str(tmp_path), selection=["table1"],
        digests={"table1": "0" * 64})
    assert unit["attempted"] == 2  # cold and warm pass
    assert unit["failed"] == 2
    assert "artifact sha256" in unit["errors"][0]


def test_correct_digest_passes(tmp_path):
    unit = workloads.run_registry("campaign-fast", str(tmp_path),
                                  selection=["table1"])
    assert (unit["attempted"], unit["failed"]) == (2, 0)


def test_corrupted_ciphertext_makes_fail_frac_nonzero():
    unit = workloads.run_api_jobs(5, n_jobs=6, calibrate=False,
                                  faults="corrupt=1.0,seed=1")
    assert unit["attempted"] == 6
    assert unit["failed"] == 6


def test_job_stream_is_seeded():
    a, b = workloads.make_jobs(11), workloads.make_jobs(11)
    assert a == b != workloads.make_jobs(12)
    assert len(a) == 72
    assert {j["kind"] for j in a} == {"ring", "bcast", "alltoall"}
    assert {j["runtime"] for j in a} == {"threads", "coroutines"}
    assert {j["nranks"] for j in a} == set(range(2, 9))
    assert min(j["size"] for j in a) >= 1
    assert max(j["size"] for j in a) <= workloads.MAX_PAYLOAD


def test_digests_match_committed_artifacts():
    digests = workloads.load_digests()
    checked = 0
    for cid, digest in digests.items():
        path = os.path.join(ROOT, "results", f"{cid}.json")
        if cid == "predictor" or not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, cid
        checked += 1
    assert checked >= 9
    with open(os.path.join(ROOT, "tests", "goldens",
                           "predict_model.json")) as fh:
        assert json.load(fh)["digest"] == digests["predictor"]


def test_traced_generator_keeps_semantics():
    tracer = Tracer(("layer",))

    def gen(n):
        total = 0
        for _ in range(n):
            try:
                total += yield total
            except KeyError:
                total = -100
        return total

    wrapped = traced(tracer, gen, "layer:gen", "layer")
    tracer.start()
    g = wrapped(3)
    assert next(g) == 0
    assert g.send(5) == 5
    assert g.throw(KeyError()) == -100
    with pytest.raises(StopIteration) as stop:
        g.send(1)
    wall = tracer.stop()
    assert stop.value.value == -99
    assert tracer.layer_entries("layer") == 1
    assert len(tracer.durations("layer:gen")) == 4  # one per resumption
    assert sum(tracer.self_s) == pytest.approx(wall, rel=1e-9)


def test_blocked_thread_is_not_charged_while_another_runs():
    """Two threads hand control back and forth like thread-runtime
    ranks; a span left open across the handoff is not charged for the
    other thread's work."""
    clock = iter(range(100)).__next__
    tracer = Tracer(("rank", "handoff", "work"), clock=lambda: float(clock()))
    rank_turn, main_turn = threading.Semaphore(0), threading.Semaphore(0)
    rank, handoff, work = (tracer.name_id(n) for n in ("r", "h", "w"))

    def rank_thread():
        rank_turn.acquire()
        tracer.enter(rank, 1)             # rank span stays open ...
        tracer.enter(handoff, 2)          # ... across this handoff
        main_turn.release()
        rank_turn.acquire()
        tracer.exit()
        tracer.exit()
        main_turn.release()

    th = threading.Thread(target=rank_thread)
    th.start()
    tracer.start()                        # t=0
    tracer.enter(handoff, 2)              # t=1: main hands over
    rank_turn.release()
    main_turn.acquire()                   # rank entered at t=2, t=3
    tracer.exit()                         # t=4
    tracer.enter(work, 3)                 # t=5: work while rank blocks
    tracer.exit()                         # t=6
    tracer.enter(handoff, 2)              # t=7
    rank_turn.release()
    main_turn.acquire()                   # rank exits at t=8, t=9
    tracer.exit()                         # t=10
    wall = tracer.stop()                  # t=11
    th.join(timeout=10)
    assert not th.is_alive()
    # t=2..3 and t=8..9; never t=3..8, while the rank was blocked
    assert tracer.layer_self_s("rank") == 2.0
    assert tracer.layer_self_s("handoff") == 3.0
    assert tracer.layer_self_s("work") == 1.0
    assert sum(tracer.self_s) == wall == 11.0


def test_thread_closing_its_span_after_handing_back_is_charged_once():
    """A finishing rank thread hands control back while its span is
    open and closes the span while the other thread already runs on.
    The rank's close is held inside the clock until the other thread's
    event could have run: each interval is still charged exactly once,
    and the rank only for the time it ran alone."""
    ticks = iter(range(100)).__next__
    closing = threading.Event()
    main_done = threading.Event()
    rank_turn, main_turn = threading.Semaphore(0), threading.Semaphore(0)

    def clock() -> float:
        t = float(ticks())
        if threading.current_thread() is th and closing.is_set():
            closing.clear()
            main_turn.release()           # main may now record its event
            main_done.wait(0.5)
        return t

    tracer = Tracer(("rank", "handoff"), clock=clock)
    rank, handoff = tracer.name_id("r"), tracer.name_id("h")

    def rank_thread():
        rank_turn.acquire()
        tracer.enter(rank, 1)             # t=2
        closing.set()
        tracer.exit()                     # t=3, held inside the clock

    th = threading.Thread(target=rank_thread)
    th.start()
    tracer.start()                        # t=0
    tracer.enter(handoff, 2)              # t=1: main hands over
    rank_turn.release()
    main_turn.acquire()                   # rank is inside its exit()
    tracer.exit()                         # t=4
    main_done.set()
    th.join(timeout=10)
    wall = tracer.stop()                  # t=5
    assert not th.is_alive()
    assert all(s >= 0 for s in tracer.self_s)
    assert tracer.layer_self_s("rank") == 1.0
    assert sum(tracer.self_s) == wall == 5.0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "api-jobs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
