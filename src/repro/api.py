"""The unified public facade of the reproduction.

Everything a caller needs rides behind three functions::

    from repro import api

    result = api.run_job(my_rank_fn, nranks=4,
                         security=api.SecurityConfig(library="boringssl"))
    points = api.sweep(my_rank_fn, nranks=4,
                       securities=(None, api.SecurityConfig()))
    artifact = api.get_experiment("fig6").runner()

Before this module existed, callers imported from four subpackages
(``repro.simmpi.world``, ``repro.workloads.*``, ``repro.encmpi.config``,
``repro.experiments.registry``); those import paths keep working, but
new code should come through here — this is the surface the project
keeps stable.

Design rules of the facade:

- every argument beyond the workload itself is **keyword-only**;
- results are frozen dataclasses, not tuples;
- a workload is one plain function, run once per rank, receiving a
  :class:`repro.simmpi.world.RankContext`.  When a
  :class:`SecurityConfig` is supplied, the context's ``enc`` attribute
  carries a ready :class:`repro.encmpi.context.EncryptedComm` for that
  rank; on plain jobs ``ctx.enc`` is None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.des.options import EngineOptions, parse_engine_options
from repro.encmpi.config import SecurityConfig
from repro.encmpi.plan import CryptoPlan, parse_crypto_plan
from repro.experiments.registry import (
    Experiment,
    get_experiment,
    list_experiments,
)
from repro.experiments.stats import JobStats, StatsSpec, parse_stats_spec
from repro.models.cpu import PAPER_CLUSTER, ClusterSpec, parse_cluster_spec
from repro.models.network import FabricSpec, NetworkModel, parse_network_spec
from repro.models.predict import Prediction, PredictionModel
from repro.simmpi.faults import FaultPlan, parse_fault_plan
from repro.simmpi.resilience import (
    ResiliencePolicy,
    ResilienceReport,
    parse_resilience_policy,
)
from repro.simmpi.tracing import (  # noqa: F401 - CommTrace: JobResult.trace
    CommTrace,
    TraceMode,
    TraceRecorder,
    parse_trace_mode,
)
from repro.simmpi.world import (
    JobResult,
    RankContext,
    _network_name,
    _require_faults,
    run_job,
)

if TYPE_CHECKING:
    from repro.experiments.campaign import CampaignResult

__all__ = [
    "ClusterSpec",
    "CryptoPlan",
    "EngineOptions",
    "Experiment",
    "FabricSpec",
    "FaultPlan",
    "JobResult",
    "JobStats",
    "PAPER_CLUSTER",
    "Prediction",
    "PredictionModel",
    "ResiliencePolicy",
    "ResilienceReport",
    "SecurityConfig",
    "StatsSpec",
    "SweepPoint",
    "TraceMode",
    "calibrate_predictor",
    "get_experiment",
    "lint_job",
    "list_experiments",
    "parse_cluster_spec",
    "parse_crypto_plan",
    "parse_engine_options",
    "parse_fault_plan",
    "parse_network_spec",
    "parse_resilience_policy",
    "parse_stats_spec",
    "parse_trace_mode",
    "predict",
    "run_campaign",
    "run_job",
    "sweep",
    "verify_job",
]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a :func:`sweep` grid."""

    network: str
    security: SecurityConfig | None
    result: JobResult

    @property
    def label(self) -> str:
        lib = self.security.library if self.security is not None else "baseline"
        return f"{self.network}/{lib}"


def sweep(
    workload: Callable[[RankContext], Any],
    *,
    nranks: int = 2,
    networks: Sequence[str | FabricSpec | NetworkModel] = ("ethernet",),
    securities: Iterable[SecurityConfig | None] = (None,),
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    trace: TraceMode = False,
    faults: FaultPlan | None = None,
    parallel: int = 1,
    sanitize: bool | None = None,
    resilience: ResiliencePolicy | None = None,
    engine: EngineOptions | str | None = None,
    stats: StatsSpec | str | None = None,
) -> list[SweepPoint]:
    """Run *workload* across the (network × security) grid.

    The grid order is deterministic: networks outermost, securities in
    the order given.  Each cell is an independent :func:`run_job`, to
    which every other keyword is forwarded unchanged.  Passing one
    TraceRecorder instance across cells raises — each job needs its own
    recorder, so use ``trace="events"`` for sweeps.  A :class:`FaultPlan`
    builds a fresh seeded injector in every cell, so every cell faces
    the same adversary.

    *parallel* > 1 routes the grid cells through the campaign
    executor's fork pool (:func:`repro.experiments.campaign.run_tasks`):
    cells run on that many worker processes and the returned list is
    still in grid order, byte-identical to a serial sweep.  On
    platforms without ``fork`` the sweep silently degrades to serial.

    *networks* entries may be bare names, fabric spec strings, or
    :class:`FabricSpec` values (see :func:`run_job`); cell labels use
    the canonical token.  *stats* arms seeded repetitions per cell.
    """
    _require_faults(faults)
    if isinstance(parallel, bool) or not isinstance(parallel, int):
        raise TypeError(f"parallel must be a positive int, got {parallel!r}")
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    securities = tuple(securities)
    networks = tuple(networks)
    cells = [(net, sec) for net in networks for sec in securities]
    if isinstance(trace, TraceRecorder) and len(cells) > 1:
        raise RuntimeError(
            "one TraceRecorder cannot be shared across sweep cells; "
            "use a fresh recorder per run (trace='events' gives each "
            "cell its own)"
        )

    def make_task(net, sec):
        def task() -> JobResult:
            return run_job(
                workload, nranks=nranks, security=sec, network=net,
                cluster=cluster, placement=placement, trace=trace,
                faults=faults, sanitize=sanitize, resilience=resilience,
                engine=engine, stats=stats,
            )

        return task

    tasks = [make_task(net, sec) for net, sec in cells]
    if parallel == 1:
        results = [task() for task in tasks]
    else:
        from repro.experiments.campaign import run_tasks

        results = run_tasks(tasks, parallel)
    return [
        SweepPoint(network=_network_name(net), security=sec, result=result)
        for (net, sec), result in zip(cells, results)
    ]


def lint_job(workload: Callable[[RankContext], Any]):
    """Statically lint one workload function; the facade's code review.

    Runs the :mod:`repro.analysis` rule set (MPI protocol, determinism,
    crypto misuse) over the function's source with its top-level
    definitions treated as rank code.  Returns the list of
    :class:`repro.analysis.Finding` (empty when clean), line numbers
    anchored to the defining file::

        findings = api.lint_job(my_rank_fn)
        for f in findings:
            print(f.format())
    """
    from repro.analysis import lint_callable

    return lint_callable(workload)


def verify_job(workload: Callable[[RankContext], Any], *,
               sizes: Sequence[int] = (2, 4)):
    """Flow-sensitively verify one workload function.

    Abstract-interprets the function as a rank program at each world
    size in *sizes*, extracts its symbolic communication graph, and
    checks send/recv match completeness, tag consistency, collective
    call-order agreement, deadlock cycles, and crypto taint hygiene
    (the MPI1xx/CRY1xx rules — ``python -m repro.analysis rules``).
    Returns the list of :class:`repro.analysis.Finding`, line numbers
    anchored to the defining file; a ``# verify-sizes:`` pragma in the
    defining module overrides *sizes*::

        findings = api.verify_job(my_rank_fn)
        assert not findings, findings[0].format()
    """
    from repro.analysis.dataflow import verify_callable

    return verify_callable(workload, sizes=tuple(sizes)).findings


def calibrate_predictor(
    *, cache_dir: str | None = "results/cache", force: bool = False
) -> PredictionModel:
    """Fit (or fetch) the analytical prediction engine; the facade's
    entry to :func:`repro.models.predict.calibrate`.

    Runs the deterministic anchor-cell set through the simulator (each
    cell memoized in the campaign result cache under *cache_dir*;
    ``None`` simulates fresh), fits the per-library crypto curves, the
    Hockney-style wire curves, the max-min-fair pair-sharing factors,
    and the pipelined-mode corrections, and returns a frozen
    :class:`PredictionModel`.  The fitted model is memoized per
    process; *force* refits.  Two calibrations from the same anchors
    produce byte-identical :meth:`PredictionModel.token` strings.
    """
    from repro.models.predict import calibrate

    return calibrate(cache_dir=cache_dir, force=force)


def predict(
    *,
    library: str | None = None,
    fabric: str = "ethernet",
    size: int = 1,
    pairs: int = 1,
    plan: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    cache_dir: str | None = "results/cache",
) -> Prediction:
    """Answer one cell analytically — microseconds, no simulation.

    Calibrates the prediction engine on first use (simulating the
    anchor cells once, cached under *cache_dir*), then evaluates the
    closed-form model: ``pairs == 1`` predicts the ping-pong mean
    one-way time, ``pairs > 1`` the multipair steady-state goodput;
    *plan* selects serial vs cryptmpi pipelined sealing; *faults* +
    *resilience* add the expected-retransmission overhead.  Every
    :class:`Prediction` carries a confidence bound validated against
    held-out simulated cells (see the ``predict`` registry experiment).
    """
    model = calibrate_predictor(cache_dir=cache_dir)
    return model.predict(
        library=library, fabric=fabric, size=size, pairs=pairs,
        plan=plan, faults=faults, resilience=resilience,
    )


def run_campaign(
    selection: Sequence[str] | Sequence[Experiment] = ("all",),
    *,
    jobs: int = 1,
    cache: bool = True,
    resume: bool = False,
    results_dir: str | None = "results",
    cache_dir: str | None = None,
    write_artifacts: bool = True,
    write_manifest: bool = True,
    sanitize: bool = False,
    crypto: CryptoPlan | None = None,
    engine: EngineOptions | str | None = None,
) -> "CampaignResult":
    """Run a campaign of registry experiments; the facade's batch lane.

    *selection* uses the one selection grammar
    (:func:`repro.experiments.registry.select`): tokens like ``"all"``,
    ``"fast"``, ``"not-slow"`` or explicit ids.  Cells run across
    *jobs* worker processes, merge deterministically in selection
    order, and — with *cache* on — are served from the on-disk
    content-addressed result cache under ``<results_dir>/cache`` keyed
    by (experiment id, config digest, code fingerprint of
    ``src/repro``), so a warm re-run executes no runners at all.  A
    resumable manifest lands at ``<results_dir>/campaign.json``.

    *sanitize* arms the runtime sanitizer for every executed cell (see
    :func:`run_job`); sanitizer violations surface as failed cells.
    Cache hits skip runners and therefore the sanitizer — combine with
    ``cache=False`` for a full sanitized sweep.

    *crypto* sets the process-wide default :class:`CryptoPlan` for the
    campaign (fork-pool workers inherit it): every
    :class:`SecurityConfig` built without an explicit plan adopts its
    pipeline geometry (mode/chunk/helper cores), and the plan's token
    salts every cell's cache key so serial and cryptmpi results never
    collide.

    *engine* sets the process-wide default :class:`EngineOptions` (or a
    spec string like ``"coroutines"``) the same way: every simulated
    job in every cell executes on that rank runtime, and the options'
    token salts the cache keys — ``make check-runtime-parity`` runs the
    fast tier under both runtimes and byte-compares the artifacts.

    Returns a frozen
    :class:`repro.experiments.campaign.CampaignResult`; failures never
    raise mid-campaign, they surface in ``result.failed``.
    """
    from repro.experiments.campaign import run_campaign as _run

    return _run(
        selection,
        jobs=jobs,
        cache=cache,
        resume=resume,
        results_dir=results_dir,
        cache_dir=cache_dir,
        write_artifacts=write_artifacts,
        write_manifest=write_manifest,
        sanitize=sanitize,
        crypto=crypto,
        engine=engine,
    )
