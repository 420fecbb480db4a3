"""Error-path contracts of the five ``key=value`` spec parsers.

``parse_crypto_plan``, ``parse_fault_plan``, ``parse_resilience_policy``,
``parse_stats_spec`` and ``parse_network_spec`` share one grammar
(:func:`repro.util.specs.parse_options`): malformed tokens,
duplicate/conflicting keys, unknown keys or modes and unconvertible
values all raise :class:`ValueError`; every "unknown X" message *names
the valid alternatives*, and every bad value names its key and the
expected form, so the CLI error is self-repairing.  All five are also
re-exported from :mod:`repro.api` for hosts that build specs
programmatically."""

import pytest

import repro.api as api
from repro.encmpi.plan import CRYPTO_PLAN_MODES, parse_crypto_plan
from repro.experiments.stats import StatsSpec, parse_stats_spec
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.models.network import FabricSpec, parse_network_spec
from repro.simmpi.faults import parse_fault_plan
from repro.simmpi.resilience import parse_resilience_policy


def test_api_reexports_the_parsers():
    assert api.parse_crypto_plan is parse_crypto_plan
    assert api.parse_fault_plan is parse_fault_plan
    assert api.parse_resilience_policy is parse_resilience_policy


# ------------------------------------------------------- parse_crypto_plan

def test_crypto_plan_round_trip():
    plan = parse_crypto_plan("cryptmpi:chunk=256k,cores=3,library=openssl")
    assert (plan.mode, plan.chunk_bytes, plan.helper_cores, plan.library) \
        == ("cryptmpi", 256 * 1024, 3, "openssl")


def test_crypto_plan_unknown_mode_names_valid_modes():
    with pytest.raises(ValueError) as err:
        parse_crypto_plan("gcm")
    for mode in CRYPTO_PLAN_MODES:
        assert mode in str(err.value)


def test_crypto_plan_malformed_option():
    with pytest.raises(ValueError, match="need key=value"):
        parse_crypto_plan("serial:chunk")


def test_crypto_plan_duplicate_key_conflicts():
    with pytest.raises(ValueError, match="duplicate crypto option"):
        parse_crypto_plan("cryptmpi:chunk=64k,chunk=256k")


def test_crypto_plan_unknown_key_names_valid_keys():
    with pytest.raises(ValueError) as err:
        parse_crypto_plan("cryptmpi:threads=4")
    msg = str(err.value)
    assert "unknown crypto option" in msg
    for key in ("chunk", "cores", "library", "bytework"):
        assert key in msg


def test_crypto_plan_unknown_library_names_profiled():
    with pytest.raises(ValueError) as err:
        parse_crypto_plan("serial:library=rustls")
    for lib in PROFILED_LIBRARIES:
        assert lib in str(err.value)


@pytest.mark.parametrize("spec, expected", [
    ("cryptmpi:cores=three", "cores must be an integer or 'auto'"),
    ("cryptmpi:chunk=big", "chunk must be a size"),
])
def test_crypto_plan_bad_value_names_the_option(spec, expected):
    with pytest.raises(ValueError, match=expected) as err:
        parse_crypto_plan(spec)
    assert "invalid literal" not in str(err.value)


# -------------------------------------------------------- parse_fault_plan

def test_fault_plan_round_trip():
    plan = parse_fault_plan("drop=0.05,corrupt=0.02,seed=7")
    assert (plan.drop, plan.corrupt, plan.seed) == (0.05, 0.02, 7)


def test_fault_plan_malformed_option():
    with pytest.raises(ValueError, match="need key=value"):
        parse_fault_plan("drop")


def test_fault_plan_duplicate_key_conflicts():
    with pytest.raises(ValueError, match="duplicate fault option"):
        parse_fault_plan("drop=0.1,drop=0.2")


def test_fault_plan_unknown_key_names_valid_keys():
    with pytest.raises(ValueError) as err:
        parse_fault_plan("loss=0.1")
    msg = str(err.value)
    assert "unknown fault option" in msg
    for key in ("drop", "corrupt", "duplicate", "seed"):
        assert key in msg


def test_fault_plan_out_of_range_rate():
    with pytest.raises(ValueError):
        parse_fault_plan("drop=1.5")


@pytest.mark.parametrize("spec, expected", [
    ("drop=abc", "drop must be a rate"),
    ("seed=1.5", "seed must be an integer"),
])
def test_fault_plan_bad_value_names_the_option(spec, expected):
    with pytest.raises(ValueError, match=expected) as err:
        parse_fault_plan(spec)
    assert "could not convert" not in str(err.value)
    assert "invalid literal" not in str(err.value)


# ------------------------------------------------- parse_resilience_policy

def test_resilience_round_trip():
    policy = parse_resilience_policy("retries=3,timeout=0.001,backoff=fixed")
    assert (policy.max_retries, policy.timeout, policy.backoff) \
        == (3, 0.001, "fixed")


def test_resilience_malformed_option():
    with pytest.raises(ValueError, match="need key=value"):
        parse_resilience_policy("retries")


def test_resilience_alias_conflict():
    # retries and max_retries are the same knob; giving both must not
    # silently keep the last one
    with pytest.raises(ValueError, match="conflicting resilience option"):
        parse_resilience_policy("retries=2,max_retries=3")


def test_resilience_duplicate_key_conflicts():
    with pytest.raises(ValueError, match="conflicting resilience option"):
        parse_resilience_policy("timeout=0.001,timeout=0.002")


def test_resilience_unknown_key_names_valid_keys():
    with pytest.raises(ValueError) as err:
        parse_resilience_policy("attempts=3")
    msg = str(err.value)
    assert "unknown resilience option" in msg
    for key in ("retries", "timeout", "backoff", "escalation", "factor"):
        assert key in msg


def test_resilience_unknown_backoff_names_valid_modes():
    with pytest.raises(ValueError) as err:
        parse_resilience_policy("backoff=cubic")
    assert "exponential" in str(err.value)
    assert "fixed" in str(err.value)


@pytest.mark.parametrize("spec, expected", [
    ("retries=x", "retries must be an integer"),
    ("timeout=soon", "timeout must be a number"),
    ("factor=x", "factor must be a number"),
])
def test_resilience_bad_value_names_the_option(spec, expected):
    with pytest.raises(ValueError, match=expected) as err:
        parse_resilience_policy(spec)
    assert "could not convert" not in str(err.value)
    assert "invalid literal" not in str(err.value)


# ------------------------------- parse_stats_spec and parse_network_spec
# Their home suites (tests/experiments/test_stats.py,
# tests/models/test_fabric.py) pin the valid-key lists; these rows pin
# the rest of the shared grammar for them.

@pytest.mark.parametrize("parse, spec, expected", [
    (parse_stats_spec, "reps=3,seed",
     "malformed stats option 'seed' (need key=value)"),
    (parse_network_spec, "wan:jitter=1%,loss",
     "malformed network option 'loss' (need key=value)"),
])
def test_malformed_option_is_named(parse, spec, expected):
    with pytest.raises(ValueError) as err:
        parse(spec)
    assert expected in str(err.value)


@pytest.mark.parametrize("parse, spec, kind", [
    (parse_stats_spec, "seed=1,seed=2", "stats"),
    (parse_network_spec, "wan:seed=1,seed=2", "network"),
])
def test_duplicate_key_conflicts(parse, spec, kind):
    with pytest.raises(ValueError) as err:
        parse(spec)
    assert f"duplicate {kind} option" in str(err.value)
    assert f"conflicting {kind} option" in str(err.value)


@pytest.mark.parametrize("parse, spec, expected", [
    (parse_stats_spec, "reps=3,alpha=0.1", "unknown stats option 'alpha'"),
    (parse_network_spec, "wan:delay=1%", "unknown network option 'delay'"),
])
def test_unknown_key_is_named(parse, spec, expected):
    with pytest.raises(ValueError) as err:
        parse(spec)
    assert expected in str(err.value)


@pytest.mark.parametrize("parse, spec, expected", [
    (parse_stats_spec, "reps=many", "stats option reps must be an integer"),
    (parse_stats_spec, "confidence=high",
     "stats option confidence must be a fraction"),
    (parse_stats_spec, "seed=1.5", "stats option seed must be an integer"),
    (parse_network_spec, "wan:jitter=lots",
     "network option jitter must be a fraction"),
    (parse_network_spec, "wan:wobble=", "network option wobble must be a fraction"),
    (parse_network_spec, "wan:seed=1.5", "network option seed must be an integer"),
])
def test_bad_value_names_the_option(parse, spec, expected):
    with pytest.raises(ValueError) as err:
        parse(spec)
    assert expected in str(err.value)
    assert "could not convert" not in str(err.value)
    assert "invalid literal" not in str(err.value)


def test_blank_items_are_skipped():
    assert parse_stats_spec(" reps=3,, seed=1,") == StatsSpec(reps=3, seed=1)
    assert parse_network_spec("wan:loss=1%,,seed=3,") == FabricSpec(
        base="wan", loss=0.01, seed=3
    )
