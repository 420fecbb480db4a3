"""The one process-wide default: crypto plan, engine options and the
sanitize flag travel as one frozen value, set and restored together."""

import pytest

from repro import api, defaults
from repro.analysis.sanitize import resolve_sanitize
from repro.defaults import RunDefaults
from repro.des.options import EngineOptions, resolve_engine_options
from repro.encmpi import CryptoPlan, SecurityConfig
from repro.experiments import campaign as campaign_mod

PLAN = CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024)
ENGINE = EngineOptions(runtime="threads")
TAG = 1


def _pingpong(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"p" * 64, 1, tag=TAG)
    else:
        ctx.comm.recv(0, TAG)


def test_one_default_sets_and_restores(monkeypatch):
    assert defaults.current() == RunDefaults()
    with defaults.use(crypto=PLAN, engine=ENGINE, sanitize=True) as value:
        assert defaults.current() is value
        # every reader sees the one value
        assert SecurityConfig().crypto.mode == "cryptmpi"
        assert resolve_engine_options(None) is ENGINE
        assert resolve_sanitize(None) is True
        assert api.run_job(_pingpong, nranks=2).sanitizer is not None
        # a nested block replaces the whole value and restores it on error
        with pytest.raises(RuntimeError):
            with defaults.use():
                assert defaults.current() == RunDefaults()
                raise RuntimeError
        assert defaults.current() is value
    assert defaults.current() == RunDefaults()
    assert api.run_job(_pingpong, nranks=2).sanitizer is None

    with pytest.raises(TypeError, match="CryptoPlan"):
        RunDefaults(crypto="cryptmpi")
    with pytest.raises(TypeError, match="EngineOptions"):
        RunDefaults(engine="threads")

    # a campaign installs the value for its cells and restores it even
    # when a cell raises
    observed = []

    def fake_execute(exp_id):
        observed.append(defaults.current())
        if len(observed) == 2:
            raise RuntimeError("cell blew up")
        return {"ok": True, "artifact": {}, "text": "", "seconds": 0.0,
                "pid": 0}

    monkeypatch.setattr(campaign_mod, "_execute_experiment", fake_execute)
    with pytest.raises(RuntimeError, match="blew up"):
        campaign_mod.run_campaign(
            api.list_experiments()[:2], jobs=1, cache=False,
            results_dir=None, write_artifacts=False, write_manifest=False,
            sanitize=True, crypto=PLAN, engine=ENGINE,
        )
    assert observed == [RunDefaults(crypto=PLAN, engine=ENGINE,
                                    sanitize=True)] * 2
    assert defaults.current() == RunDefaults()
