"""EngineOptions and parse_engine_options: the typed runtime facade.

The engine spec is a bare runtime name; anything else — including the
``RUNTIME:key=value`` tails the other ``parse_*`` spec parsers take —
raises :class:`ValueError` naming the valid runtimes, and the whole
surface is re-exported from :mod:`repro.api`.
"""

import dataclasses

import pytest

import repro.api as api
from repro import defaults
from repro.des.options import (
    EngineOptions,
    parse_engine_options,
    resolve_engine_options,
)
from repro.des.process import RUNTIMES
from repro.simmpi.world import MAX_RANKS


def test_api_reexports_the_engine_surface():
    assert api.EngineOptions is EngineOptions
    assert api.parse_engine_options is parse_engine_options


# ------------------------------------------------------------ EngineOptions

def test_defaults():
    assert [f.name for f in dataclasses.fields(EngineOptions)] == ["runtime"]
    assert EngineOptions().runtime == "auto"
    assert MAX_RANKS == 4096


def test_unknown_runtime_names_valid_ones():
    with pytest.raises(ValueError) as err:
        EngineOptions(runtime="fibers")
    for runtime in RUNTIMES:
        assert runtime in str(err.value)


def test_token_is_canonical_and_round_trips():
    for runtime in RUNTIMES:
        opts = EngineOptions(runtime=runtime)
        assert opts.token() == runtime
        assert parse_engine_options(opts.token()) == opts


# ----------------------------------------------------- parse_engine_options

def test_parse_round_trip():
    assert parse_engine_options("coroutines") == EngineOptions(
        runtime="coroutines"
    )
    assert parse_engine_options(" Threads ").runtime == "threads"


def test_parse_bare_runtime():
    assert parse_engine_options("threads") == EngineOptions(runtime="threads")


def test_parse_unknown_runtime_names_valid_ones():
    with pytest.raises(ValueError) as err:
        parse_engine_options("greenlets")
    for runtime in RUNTIMES:
        assert runtime in str(err.value)


def test_parse_unknown_key_names_valid_ones():
    # the engine spec takes no options: a key=value tail is rejected
    # and the message names the runtimes that are valid
    for spec in ("auto:stack_size=8", "coroutines:max_ranks=4096",
                 "threads:handoff_check=on"):
        with pytest.raises(ValueError) as err:
            parse_engine_options(spec)
        for runtime in RUNTIMES:
            assert runtime in str(err.value)


def test_parse_malformed_pair_raises():
    with pytest.raises(ValueError, match="unknown runtime 'auto:max_ranks'"):
        parse_engine_options("auto:max_ranks")


# ------------------------------------------------------------- resolution

def test_resolve_coerces_strings_and_rejects_junk():
    assert resolve_engine_options(None) == EngineOptions()
    assert resolve_engine_options("threads").runtime == "threads"
    opts = EngineOptions(runtime="coroutines")
    assert resolve_engine_options(opts) is opts
    with pytest.raises(TypeError):
        resolve_engine_options(42)


def test_default_engine_options_set_and_restore():
    ours = EngineOptions(runtime="coroutines")
    with defaults.use(engine=ours):
        assert defaults.current().engine is ours
        assert resolve_engine_options(None) is ours
    assert defaults.current().engine is None
    assert resolve_engine_options(None) == EngineOptions()


def test_set_default_rejects_non_options():
    with pytest.raises(TypeError, match="EngineOptions"):
        with defaults.use(engine="coroutines"):
            pass
    assert defaults.current().engine is None
