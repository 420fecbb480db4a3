"""The run settings of ``run_job``/``sweep``: one keyword each.

Every setting has exactly one spelling.  A :class:`FaultPlan` is
accepted silently and rebuilt per job, and a setting of the wrong type
fails before any rank runs.
"""

import warnings

import pytest

from repro import api
from repro.models.cpu import ClusterSpec
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)
TAG_EXCHANGE = 3
PLAN = FaultPlan(drop=0.25, seed=5)
POLICY = ResiliencePolicy(max_retries=4, timeout=1e-3)


def _workload(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"\x11" * 256, 1, tag=TAG_EXCHANGE)
        return ctx.now
    data, _status = ctx.comm.recv(0, TAG_EXCHANGE)
    return (ctx.now, data)


def _exchange_many(ctx):
    for i in range(6):
        if ctx.rank == 0:
            ctx.comm.send(bytes([i]) * 128, 1, tag=TAG_EXCHANGE)
            ctx.comm.recv(1, TAG_EXCHANGE)
        else:
            ctx.comm.recv(0, TAG_EXCHANGE)
            ctx.comm.send(bytes([i]) * 128, 0, tag=TAG_EXCHANGE)
    return ctx.now


def test_fault_plan_accepted_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        job = api.run_job(
            _exchange_many, nranks=2, cluster=CLUSTER,
            faults=PLAN, resilience=POLICY,
        )
    assert job.resilience.gave_up == 0


def test_settings_typecheck_before_running():
    with pytest.raises(TypeError, match="ClusterSpec"):
        api.run_job(_workload, nranks=2, cluster="2x8")
    with pytest.raises(TypeError, match="ResiliencePolicy"):
        api.run_job(_workload, nranks=2, resilience="retries=3")
    with pytest.raises(TypeError, match="StatsSpec"):
        api.run_job(_workload, nranks=2, stats=3)
    with pytest.raises(ValueError, match="trace"):
        api.run_job(_workload, nranks=2, trace="evnts")


def test_run_options_is_frozen_and_normalizes_trace():
    # the settings and the result are frozen values; trace= strings are
    # normalized through parse_trace_mode, and a typo names the setting
    result = api.run_job(_workload, nranks=2, trace="aggregate",
                         faults=PLAN, resilience=POLICY)
    assert isinstance(result.trace, api.CommTrace)
    events = api.run_job(_workload, nranks=2, trace="EVENTS")
    assert isinstance(events.trace, api.TraceRecorder)
    for frozen, field in ((result, "trace"), (PLAN, "drop"),
                          (POLICY, "max_retries")):
        with pytest.raises(AttributeError):
            setattr(frozen, field, None)
    bad = pytest.raises(ValueError, api.run_job, _workload, nranks=2,
                        trace="evnts")
    assert "trace" in str(bad.value)
    with pytest.raises(TypeError, match="resilience"):
        api.run_job(_workload, nranks=2, resilience="retries=3")


def test_cluster_typechecks_in_both_spellings():
    # run_job and sweep spell cluster= the same way and check it alike
    with pytest.raises(TypeError, match="ClusterSpec"):
        api.run_job(_workload, nranks=2, cluster="2x8")
    with pytest.raises(TypeError, match="ClusterSpec"):
        api.sweep(_workload, nranks=2, networks=("ethernet",),
                  cluster="2x8")


def test_sweep_builds_fresh_injector_per_cell():
    # A plan parameterizes every cell; each build gets its own RNG
    # stream, so both networks see the identical fault sequence.
    points = api.sweep(
        _exchange_many,
        nranks=2,
        networks=("ethernet", "infiniband"),
        cluster=CLUSTER,
        faults=PLAN,
        resilience=POLICY,
    )
    assert len(points) == 2
    retx = [p.result.resilience.retransmits for p in points]
    assert retx[0] == retx[1] > 0


def test_cluster_shape_changes_the_simulation():
    """The spec is load-bearing: intra-node vs cross-node placement of
    the same two ranks must produce different timings."""
    one_node = api.run_job(
        _exchange_many, nranks=2,
        cluster=ClusterSpec(nodes=1, cores_per_node=2),
    )
    two_nodes = api.run_job(
        _exchange_many, nranks=2,
        cluster=ClusterSpec(nodes=2, cores_per_node=2),
    )
    assert one_node.duration != two_nodes.duration
