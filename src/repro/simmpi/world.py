"""Launching simulated MPI jobs.

:func:`run_job` is the ``mpiexec`` of this package: it spins up a
scheduler, a cluster runtime, and one simulated process per rank, runs
the workload on every rank — optionally behind the AES-GCM layer — and
returns a frozen :class:`JobResult` with the per-rank results and the
job's virtual makespan.  :mod:`repro.api` re-exports both.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.des.engine import DeadlockError
from repro.des.options import EngineOptions, resolve_engine_options
from repro.des.process import Scheduler, _Sleep
from repro.models.cpu import PAPER_CLUSTER, ClusterSpec, check_placement
from repro.models.network import FabricSpec, NetworkModel, resolve_network
from repro.simmpi.comm import CommHandle, Communicator
from repro.simmpi.faults import ChainedInjector, FaultPlan
from repro.simmpi.resilience import (
    ReliabilityManager,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.simmpi.tracing import (
    CommTrace,
    TraceMode,
    TraceRecorder,
    resolve_trace,
)
from repro.simmpi.topology import ClusterRuntime

if TYPE_CHECKING:
    from repro.encmpi.config import SecurityConfig
    from repro.experiments.stats import JobStats, StatsSpec

#: rank ceiling of one job (the scale experiment's top point); anything
#: above it is almost certainly an accidental unit error in a rank count
MAX_RANKS = 4096


class RankContext:
    """Everything one rank's program sees."""

    def __init__(self, comm: CommHandle, scheduler: Scheduler,
                 cluster: ClusterRuntime, recorder=None, sanitizer=None,
                 resilience=None):
        self.comm = comm
        self._scheduler = scheduler
        self._cluster = cluster
        #: encrypted communicator, populated by run_job when a
        #: SecurityConfig is supplied (None on plain-MPI jobs)
        self.enc = None
        #: TraceRecorder for structured tracing (None unless the job ran
        #: with trace="events" or an explicit recorder)
        self.recorder = recorder
        #: repro.analysis.sanitize.Sanitizer when the job runs with
        #: sanitize=True (None otherwise)
        self.sanitizer = sanitizer
        #: repro.simmpi.resilience.ReliabilityManager when the job runs
        #: with a ResiliencePolicy armed (None otherwise); the encrypted
        #: layer uses it to NACK auth failures into retransmissions
        self.resilience = resilience

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def now(self) -> float:
        """Current virtual time in seconds (MPI_Wtime)."""
        return self._scheduler.now

    @property
    def node(self) -> int:
        return self._cluster.node_of(self.rank).index

    def compute(self, seconds: float) -> None:
        """Spend *seconds* of CPU time (the rank's core is dedicated)."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds:
            self._scheduler.current().sleep(seconds)

    def co_compute(self, seconds: float):
        """Generator form of :meth:`compute` (coroutine ranks)."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds:
            yield _Sleep(seconds)

    @property
    def node_alloc(self):
        """The rank's node-local :class:`~repro.models.cpu.CoreAllocator`
        (helper cores the cryptmpi pipeline schedules chunk work onto)."""
        return self._cluster.node_of(self.rank).alloc


def _require(name: str, value: Any, cls: type, hint: str = "") -> None:
    """Reject a setting of the wrong type before any rank runs."""
    if value is not None and not isinstance(value, cls):
        raise TypeError(
            f"{name} must be a {cls.__name__} or None, got {value!r}{hint}"
        )


def _require_faults(faults: Any) -> None:
    _require("faults", faults, FaultPlan,
             "; declare the rates, seed and filters as a FaultPlan, or "
             "parse a spec string like 'corrupt=0.1,seed=3' with "
             "parse_fault_plan")


def _network_name(network: str | FabricSpec | NetworkModel) -> str:
    if isinstance(network, str):
        return network
    if isinstance(network, FabricSpec):
        return network.token()
    return network.name


@dataclass(frozen=True)
class JobResult:
    """Outcome of one :func:`run_job` invocation."""

    #: per-rank return values of the workload
    results: list
    #: virtual makespan of the job in seconds
    duration: float
    #: per-rank (start, end) virtual times
    spans: list = field(default_factory=list)
    #: observability payload: a :class:`repro.simmpi.tracing.CommTrace`
    #: when run_job(trace=True); a
    #: :class:`repro.simmpi.tracing.TraceRecorder` (full structured
    #: event stream, ``.comm`` holds the CommTrace view) when
    #: run_job(trace="events") or a recorder instance; else None
    trace: CommTrace | TraceRecorder | None = None
    #: the security configuration the job ran under (None = plain MPI)
    security: SecurityConfig | None = None
    #: fabric name the job ran on
    network: str = "ethernet"
    #: a :class:`repro.analysis.sanitize.SanitizerReport` when the job
    #: ran with ``sanitize=True`` (None otherwise); a job with leaks
    #: raises :class:`repro.analysis.sanitize.SanitizerError` instead
    #: of returning
    sanitizer: Any = None
    #: a :class:`repro.simmpi.resilience.ResilienceReport` when the job
    #: ran with a :class:`ResiliencePolicy` armed (None otherwise)
    resilience: ResilienceReport | None = None
    #: a :class:`repro.experiments.stats.JobStats` when the job ran
    #: with a :class:`StatsSpec` armed (None otherwise): the per-
    #: repetition duration samples plus the bootstrap estimate.  The
    #: rest of the result (results/trace/reports) is repetition 0's.
    stats: JobStats | None = None


def run_job(
    workload: Callable[[RankContext], Any],
    *,
    nranks: int = 2,
    security: SecurityConfig | None = None,
    network: str | FabricSpec | NetworkModel = "ethernet",
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    trace: TraceMode = False,
    faults: FaultPlan | None = None,
    sanitize: bool | None = None,
    resilience: ResiliencePolicy | None = None,
    engine: EngineOptions | str | None = None,
    stats: StatsSpec | str | None = None,
) -> JobResult:
    """Run *workload* on *nranks* simulated ranks; returns a JobResult.

    The workload receives a :class:`RankContext`.  Rank processes hold
    one core each for their lifetime (the paper never oversubscribes).
    All arguments except the workload are keyword-only, and every
    setting is checked before any rank spawns.

    With *security* set, each rank's context carries ``ctx.enc`` — an
    :class:`~repro.encmpi.context.EncryptedComm` configured per the
    paper's Algorithm 1 — and the workload chooses per call whether to
    speak plain (``ctx.comm``) or encrypted (``ctx.enc``) MPI.

    *network* accepts a bare fabric name (``"ethernet"``), a fabric
    spec string (``"wan:jitter=10%,loss=2%,seed=7"``), a
    :class:`FabricSpec`, or a prebuilt model.  *cluster* defaults to
    the paper's testbed (:data:`PAPER_CLUSTER`); *placement* is
    ``"block"`` or ``"roundrobin"``.

    *trace* selects the observability level (:data:`TraceMode`).
    ``False`` (default) costs nothing; ``True`` aggregates per-route
    statistics into a CommTrace; ``"events"`` — or a
    :class:`repro.simmpi.tracing.TraceRecorder` you construct yourself
    — records the full structured event stream (engine, transport,
    collective, AEAD layers) and per-rank counters, exportable as JSONL
    or a Chrome ``about://tracing`` file.  Unknown strings raise
    :class:`ValueError` (see :func:`parse_trace_mode`).

    *faults* takes a declarative :class:`FaultPlan`; every job — and
    every repetition of a stats-armed job — builds its own seeded
    injector from it.  Anything else raises :class:`TypeError`.  A
    lossy fabric's seeded drops chain in front of the plan's injector
    (the wire loses the message before an adversary could touch it).
    *resilience* arms the reliable-delivery layer
    (:class:`repro.simmpi.resilience.ResiliencePolicy`): retransmission
    timers with deterministic backoff, NACK + fresh-nonce
    retransmission of auth failures, and policy-driven escalation; the
    job-wide :class:`~repro.simmpi.resilience.ResilienceReport` rides
    on ``JobResult.resilience``.  Pair drops with a policy, or the job
    deadlocks.

    *sanitize* arms the runtime sanitizer
    (:mod:`repro.analysis.sanitize`): deadlocks get a wait-for-cycle
    diagnosis, leaked requests fail the job
    (:class:`~repro.analysis.sanitize.SanitizerError`), and AEAD nonce
    reuse raises regardless of backend.  The report rides on
    ``JobResult.sanitizer``; virtual timing is unaffected.  None defers
    to the process-wide default (:mod:`repro.defaults`), as does
    *engine* (an :class:`EngineOptions` or a runtime name), which picks
    the rank runtime: ``"coroutines"`` steps generator workloads
    directly in the engine context (what lets the scale experiment
    reach 4096 ranks), ``"threads"`` runs one thread per rank, and
    ``"auto"`` chooses coroutines exactly when *workload* is a
    generator function.  Both runtimes produce byte-identical
    schedules.  More than :data:`MAX_RANKS` ranks raise
    :class:`ValueError`.

    *stats* (a :class:`~repro.experiments.stats.StatsSpec` or
    ``"reps=20,confidence=95%"``) runs the job as seeded repetitions —
    each offsets the fabric's noise seed — and attaches the samples +
    bootstrap CI as ``JobResult.stats``.
    """
    if stats is not None:
        from repro.experiments.stats import StatsSpec, parse_stats_spec

        if isinstance(stats, str):
            stats = parse_stats_spec(stats)
        _require("stats", stats, StatsSpec,
                 "; a spec string like 'reps=20' also works")
    _require("cluster", cluster, ClusterSpec)
    _require("resilience", resilience, ResiliencePolicy)
    _require_faults(faults)
    check_placement(placement)
    opts = resolve_engine_options(engine)
    if nranks > MAX_RANKS:
        raise ValueError(
            f"nranks={nranks} exceeds the {MAX_RANKS}-rank ceiling of one job"
        )
    is_gen_program = inspect.isgeneratorfunction(workload)
    if opts.runtime == "coroutines" and not is_gen_program:
        raise TypeError(
            f"EngineOptions(runtime='coroutines') needs a generator rank "
            f"program, but {getattr(workload, '__name__', workload)!r} is a "
            "plain function; use runtime='threads' (or 'auto') for "
            "blocking programs"
        )
    mode = (
        "coroutines"
        if opts.runtime == "coroutines"
        or (opts.runtime == "auto" and is_gen_program)
        else "threads"
    )
    program = workload if security is None else _with_enc(workload, security)

    def launch(net) -> JobResult:
        return _launch(
            program, is_gen_program, nranks=nranks, mode=mode, network=net,
            cluster=cluster if cluster is not None else PAPER_CLUSTER,
            placement=placement, trace=trace,
            injector=faults.build() if faults is not None else None,
            sanitize=sanitize, resilience=resilience,
        )

    if stats is None:
        runs = [launch(network)]
    else:
        if isinstance(trace, TraceRecorder) and stats.reps > 1:
            raise RuntimeError(
                "one TraceRecorder cannot be shared across repetitions; use "
                "trace='events' so each repetition records its own stream"
            )
        from repro.experiments.stats import job_stats, rep_networks

        runs = [launch(net) for net in rep_networks(network, stats)]
    return replace(
        runs[0], security=security, network=_network_name(network),
        stats=None if stats is None
        else job_stats(tuple(r.duration for r in runs), stats),
    )


def _with_enc(workload: Callable[[RankContext], Any],
              security: SecurityConfig) -> Callable[[RankContext], Any]:
    """*workload* with ``ctx.enc`` set to an EncryptedComm first."""
    from repro.encmpi.context import EncryptedComm

    if inspect.isgeneratorfunction(workload):
        # stays a generator function, so the coroutine runtime can step it
        def program(ctx: RankContext):
            ctx.enc = EncryptedComm(ctx, security)
            return (yield from workload(ctx))

    else:

        def program(ctx: RankContext) -> Any:
            ctx.enc = EncryptedComm(ctx, security)
            return workload(ctx)

    return program


def _launch(program, is_gen_program: bool, *, nranks: int, mode: str,
            network, cluster: ClusterSpec, placement: str, trace,
            injector, sanitize, resilience) -> JobResult:
    """One simulation of *program*; *injector* is this run's own."""
    from repro.analysis.sanitize import (
        Sanitizer,
        SanitizerError,
        resolve_sanitize,
    )

    fabric, net = resolve_network(network)
    if fabric is not None and fabric.loss:
        # A lossy fabric compiles to the existing fault machinery: its
        # seeded iid-drop plan chains *in front of* any explicit
        # injector.
        loss_injector = fabric.loss_plan().build()
        injector = (loss_injector if injector is None
                    else ChainedInjector((loss_injector, injector)))
    scheduler = Scheduler(runtime=mode)
    recorder, comm_trace = resolve_trace(trace)
    runtime = ClusterRuntime(scheduler, cluster, net, nranks, placement,
                             recorder)
    if recorder is not None:
        recorder.attach(scheduler)
        recorder.emit("engine", "job_start", -1, nranks=nranks,
                      network=fabric.token() if fabric is not None
                      else net.name,
                      placement=placement)
    sanitizer = None
    if resolve_sanitize(sanitize):
        sanitizer = Sanitizer(nranks, fault_injection=injector is not None)
    communicator = Communicator(scheduler, runtime, comm_trace, recorder,
                                sanitizer)
    communicator.transport.fault_injector = injector
    manager = None
    if resilience is not None:
        manager = ReliabilityManager(scheduler, communicator.transport,
                                     resilience, recorder)
        communicator.transport.resilience = manager

    results: list[Any] = [None] * nranks
    spans: list[tuple[float, float]] = [(0.0, 0.0)] * nranks

    def rank_main(rank: int):
        node = runtime.node_of(rank)
        yield from node.cores.co_acquire()
        start = scheduler.now
        if recorder is not None:
            recorder.emit("engine", "proc_start", rank,
                          node=runtime.node_of(rank).index)
        ctx = RankContext(communicator.handle(rank), scheduler, runtime,
                          recorder, sanitizer, manager)
        try:
            if is_gen_program:
                results[rank] = yield from program(ctx)
            else:
                results[rank] = program(ctx)
        finally:
            spans[rank] = (start, scheduler.now)
            if recorder is not None:
                recorder.emit("engine", "proc_end", rank)
            node.cores.release()

    for r in range(nranks):
        scheduler.spawn(rank_main, r, name=f"rank{r}")
    try:
        duration = scheduler.run()
    except DeadlockError as err:
        if sanitizer is not None:
            raise sanitizer.diagnose(scheduler) from err
        raise
    if recorder is not None:
        recorder.emit("engine", "job_end", -1, duration=duration)
    report = None
    if sanitizer is not None:
        report = sanitizer.finalize(communicator.transport.engines)
        if not report.ok:
            raise SanitizerError(report)
    return JobResult(
        results=results, duration=duration, spans=spans,
        trace=recorder if recorder is not None else comm_trace,
        sanitizer=report,
        resilience=manager.report() if manager is not None else None,
    )
