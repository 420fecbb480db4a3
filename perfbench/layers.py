"""Which entry points make up each layer, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer named in
:data:`LAYERS` (see ``perfbench/README.md`` for the table of metrics
and the workloads that should move them); :func:`per_layer_metrics`
reads the tracer back into the metric names ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import statistics

from perfbench.tracer import Patcher, Tracer, traced

LAYERS = (
    "des.engine",
    "des.process",
    "des.flows",
    "simmpi.transport",
    "simmpi.matching",
    "simmpi.collectives",
    "encmpi.context",
    "encmpi.pipeline",
    "crypto.aead",
    "models.cost",
    "models.predict",
    "analysis.verify",
    "experiments.campaign",
)

#: spans that belong to no layer: their time is harness.unattributed_s
HARNESS_LAYER = "harness"


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's entry points; :meth:`Patcher.undo` reverts."""
    import repro.analysis.dataflow as dataflow
    import repro.crypto.backends  # noqa: F401 - registers the AEAD classes
    import repro.experiments.campaign as campaign
    import repro.models.predict as predict
    from repro.crypto.aead import AEAD
    from repro.crypto.errors import AuthenticationError
    from repro.des.engine import Engine
    from repro.des.flows import FlowNetwork
    from repro.des.process import CoroProcess, Scheduler, SimProcess
    from repro.encmpi.context import EncryptedComm, EncryptedRequest
    from repro.encmpi.pipeline import ChunkPipeline
    from repro.models.cryptolib import CryptoLibraryProfile
    from repro.models.network import NetworkModel
    from repro.simmpi.comm import CommHandle
    from repro.simmpi.matching import MatchingEngine
    from repro.simmpi.transport import Transport

    p = Patcher()
    t = tracer

    def wrap(cls, attr, layer, **hooks):
        p.set(cls, attr, traced(t, cls.__dict__[attr],
                                f"{layer}:{cls.__name__}.{attr}", layer,
                                **hooks))

    # -- des.engine: the run loop; events = heap entries scheduled ------
    seq_seen: dict[int, int] = {}

    def engine_before(args, kwargs):
        seq_seen[id(args[0])] = args[0]._seq

    def engine_after(args, kwargs, result):
        eng = args[0]
        t.count("des.engine.events", eng._seq - seq_seen.pop(id(eng)))

    wrap(Engine, "run", "des.engine", before=engine_before,
         after=engine_after)

    # -- des.process: spawn, both sides of every handoff, rank programs --
    rank_span = "harness:rank_program"

    def spawn(orig):
        def spawn_wrapper(self, fn, *args, name=None):
            proc = orig(self, traced(t, fn, rank_span, HARNESS_LAYER),
                        *args, name=name)
            if type(proc) is CoroProcess:
                t.count("des.process.coro_ranks")
            elif type(proc) is SimProcess:
                t.count("des.process.thread_ranks")
            return proc
        return spawn_wrapper

    p.set(Scheduler, "spawn", traced(
        t, spawn(Scheduler.__dict__["spawn"]), "des.process:Scheduler.spawn",
        "des.process"))
    wrap(Scheduler, "wake_now", "des.process",
         before=lambda a, k: t.count("des.process.wakes"))
    wrap(Scheduler, "_on_process_exit", "des.process")
    wrap(SimProcess, "_block", "des.process")

    # -- des.flows: the solver, incl. the callbacks it schedules -------
    def flow_after(args, kwargs, result):
        t.count("des.flows.transfers")
        t.peak("des.flows.peak_active", len(args[0]._flows))

    wrap(FlowNetwork, "transfer", "des.flows", after=flow_after)
    wrap(FlowNetwork, "_run_pending_rebalance", "des.flows",
         before=lambda a, k: t.count("des.flows.rebalances"))
    wrap(FlowNetwork, "_fire_completions", "des.flows")

    # -- simmpi.transport / simmpi.matching ------------------------------
    def send_before(args, kwargs):
        t.count("simmpi.transport.sends")
        t.count("simmpi.transport.bytes", args[1].wire_bytes)

    wrap(Transport, "co_isend", "simmpi.transport", before=send_before)
    for attr in ("_start_flow", "_deliver_after", "_try_deliver",
                 "_deliver_now"):
        wrap(Transport, attr, "simmpi.transport")

    def deliver_after(args, kwargs, result):
        t.count("simmpi.matching.delivers")
        t.peak("simmpi.matching.unexpected_peak", len(args[0]._unexpected))

    wrap(MatchingEngine, "deliver", "simmpi.matching", after=deliver_after)
    wrap(MatchingEngine, "post_recv", "simmpi.matching")
    wrap(MatchingEngine, "post_probe", "simmpi.matching")

    # -- simmpi.collectives: every collective runs through this ---------
    wrap(CommHandle, "_co_run_collective", "simmpi.collectives")

    # -- encmpi: the encrypted API and the CryptMPI chunk pipeline -------
    for attr in ("co_isend", "irecv", "co_recv", "co_sendrecv", "co_bcast",
                 "co_allgather", "co_alltoall", "co_alltoallv"):
        wrap(EncryptedComm, attr, "encmpi.context")
    wrap(EncryptedRequest, "co_wait", "encmpi.context")
    wrap(ChunkPipeline, "isend", "encmpi.pipeline")
    wrap(ChunkPipeline, "_recv_wait", "encmpi.pipeline")
    wrap(ChunkPipeline, "_seal_chunk", "encmpi.pipeline",
         before=lambda a, k: t.count("encmpi.pipeline.chunks"))
    wrap(ChunkPipeline, "_open_chunk", "encmpi.pipeline")

    # -- crypto.aead: real byte work on every concrete backend -----------
    def seal_before(args, kwargs):
        t.count("crypto.aead.seals")
        t.count("crypto.aead.bytes", len(args[2]))

    def open_before(args, kwargs):
        t.count("crypto.aead.opens")
        t.count("crypto.aead.bytes", max(len(args[2]) - 16, 0))

    def open_error(args, kwargs, exc):
        if isinstance(exc, AuthenticationError):
            t.count("crypto.aead.auth_failures")

    pending = list(AEAD.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "seal" in cls.__dict__:
            wrap(cls, "seal", "crypto.aead", before=seal_before)
        if "open" in cls.__dict__:
            wrap(cls, "open", "crypto.aead", before=open_before,
                 error=open_error)

    # -- models: cost lookups, the predictor -----------------------------
    for attr in ("encrypt_time", "decrypt_time", "encdec_time"):
        wrap(CryptoLibraryProfile, attr, "models.cost")
    for attr in ("pingpong_oneway_time", "stream_bandwidth", "send_overhead",
                 "recv_overhead", "proto_delay", "nic_service_time",
                 "shm_delivery_delay"):
        wrap(NetworkModel, attr, "models.cost")
    p.set_everywhere(predict, "calibrate", traced(
        t, predict.calibrate, "models.predict:calibrate", "models.predict"))
    wrap(predict.PredictionModel, "predict", "models.predict")

    # -- analysis.verify --------------------------------------------------
    p.set_everywhere(dataflow, "verify_callable", traced(
        t, dataflow.verify_callable, "analysis.verify:verify_callable",
        "analysis.verify"))

    # -- experiments.campaign: cache, keys, manifest; runners are harness --
    def campaign_after(args, kwargs, result):
        t.count("experiments.campaign.cells", len(result.cells))
        t.count("experiments.campaign.hits", result.hits)

    p.set_everywhere(campaign, "run_campaign", traced(
        t, campaign.run_campaign, "experiments.campaign:run_campaign",
        "experiments.campaign", after=campaign_after))
    p.set_everywhere(campaign, "code_fingerprint", traced(
        t, campaign.code_fingerprint, "experiments.campaign:code_fingerprint",
        "experiments.campaign"))
    p.set_everywhere(campaign, "_execute_experiment", traced(
        t, campaign._execute_experiment, "harness:experiment_runner",
        HARNESS_LAYER))
    return p


def per_layer_metrics(tracer: Tracer, wall_s: float,
                      notes: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, from one traced unit of work.

    *notes* carries what the workload measured itself
    (``experiments.campaign.warm_s``).
    """
    c, pk = tracer.counts, tracer.peaks
    out: dict[str, float] = {}

    def self_s(layer: str) -> None:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)

    out["des.engine.events"] = c.get("des.engine.events", 0)
    self_s("des.engine")
    out["des.process.wakes"] = c.get("des.process.wakes", 0)
    out["des.process.thread_ranks"] = c.get("des.process.thread_ranks", 0)
    out["des.process.coro_ranks"] = c.get("des.process.coro_ranks", 0)
    self_s("des.process")
    out["des.flows.transfers"] = c.get("des.flows.transfers", 0)
    out["des.flows.rebalances"] = c.get("des.flows.rebalances", 0)
    out["des.flows.peak_active"] = pk.get("des.flows.peak_active", 0)
    self_s("des.flows")
    out["simmpi.transport.sends"] = c.get("simmpi.transport.sends", 0)
    out["simmpi.transport.bytes"] = c.get("simmpi.transport.bytes", 0)
    self_s("simmpi.transport")
    out["simmpi.matching.delivers"] = c.get("simmpi.matching.delivers", 0)
    out["simmpi.matching.unexpected_peak"] = pk.get(
        "simmpi.matching.unexpected_peak", 0)
    self_s("simmpi.matching")
    out["simmpi.collectives.calls"] = tracer.layer_entries(
        "simmpi.collectives")
    self_s("simmpi.collectives")
    out["encmpi.context.calls"] = tracer.layer_entries("encmpi.context")
    self_s("encmpi.context")
    out["encmpi.pipeline.chunks"] = c.get("encmpi.pipeline.chunks", 0)
    self_s("encmpi.pipeline")
    for name in ("seals", "opens", "bytes", "auth_failures"):
        out[f"crypto.aead.{name}"] = c.get(f"crypto.aead.{name}", 0)
    self_s("crypto.aead")
    out["models.cost.calls"] = tracer.layer_entries("models.cost")
    self_s("models.cost")
    out["models.predict.calibrate_s"] = sum(
        tracer.durations("models.predict:calibrate"))
    queries = tracer.durations("models.predict:PredictionModel.predict")
    out["models.predict.queries"] = len(queries)
    out["models.predict.query_p50_us"] = (
        statistics.median(queries) * 1e6 if queries else 0.0)
    self_s("models.predict")
    out["analysis.verify.calls"] = tracer.layer_entries("analysis.verify")
    self_s("analysis.verify")
    cells = c.get("experiments.campaign.cells", 0)
    hits = c.get("experiments.campaign.hits", 0)
    out["experiments.campaign.cells"] = cells
    out["experiments.campaign.hits"] = hits
    out["experiments.campaign.hit_ratio"] = hits / cells if cells else 0.0
    out["experiments.campaign.fingerprint_s"] = sum(
        tracer.durations("experiments.campaign:code_fingerprint"))
    out["experiments.campaign.warm_s"] = notes.get(
        "experiments.campaign.warm_s", 0.0)
    self_s("experiments.campaign")
    out["harness.unattributed_s"] = tracer.layer_self_s(HARNESS_LAYER)
    out["harness.traced_wall_s"] = wall_s
    return out


def per_layer_units(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("hit_ratio", "trace_overhead")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"
