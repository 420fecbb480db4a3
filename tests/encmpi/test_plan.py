"""The CryptoPlan facade: validation, the CLI string form, the
process-wide default's geometry overlay, and how SecurityConfig
reconciles its library with the plan's.

Conflicting combinations are errors, not silent precedence.
"""

import pytest

from repro import defaults
from repro.encmpi import CryptoPlan, SecurityConfig, parse_crypto_plan


@pytest.fixture(autouse=True)
def _no_default_plan():
    with defaults.use():
        yield


def test_default_plan_is_the_papers_serial_discipline():
    plan = CryptoPlan()
    assert plan.mode == "serial"
    assert not plan.pipelined
    assert plan.bytework == "real"
    assert CryptoPlan(mode="cryptmpi").pipelined


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(mode="threaded"), "mode"),
        (dict(chunk_bytes=0), "chunk_bytes"),
        (dict(helper_cores=-1), "helper_cores"),
        (dict(bytework="emulated"), "bytework"),
        (dict(library="nss"), "library"),
    ],
)
def test_plan_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        CryptoPlan(**kwargs)


def test_plan_is_frozen():
    with pytest.raises(AttributeError):
        CryptoPlan().mode = "cryptmpi"


def test_parse_crypto_plan_string_form():
    plan = parse_crypto_plan("cryptmpi:chunk=256k,cores=3")
    assert plan == CryptoPlan(mode="cryptmpi", chunk_bytes=256 * 1024,
                              helper_cores=3)
    assert parse_crypto_plan("serial") == CryptoPlan()
    assert parse_crypto_plan("cryptmpi:cores=auto").helper_cores is None
    got = parse_crypto_plan("cryptmpi:library=openssl,bytework=modeled")
    assert (got.library, got.bytework) == ("openssl", "modeled")


def test_parse_round_trips_the_canonical_token():
    for plan in (
        CryptoPlan(),
        CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024, helper_cores=2,
                   library="libsodium", bytework="modeled"),
    ):
        assert parse_crypto_plan(plan.token()) == plan


@pytest.mark.parametrize(
    "spec, match",
    [
        ("turbo", "unknown crypto plan mode"),
        ("cryptmpi:chunk", "key=value"),
        ("serial:threads=4", "unknown crypto option"),
    ],
)
def test_parse_errors_name_the_valid_forms(spec, match):
    with pytest.raises(ValueError, match=match):
        parse_crypto_plan(spec)


def test_default_plan_overlays_geometry_only():
    with defaults.use(crypto=parse_crypto_plan(
            "cryptmpi:chunk=128k,cores=2,library=openssl")):
        cfg = SecurityConfig(library="cryptopp", crypto=None)
        pinned = SecurityConfig(crypto=CryptoPlan())
    # geometry follows the default; library/bytework stay the config's
    assert cfg.crypto.mode == "cryptmpi"
    assert cfg.crypto.chunk_bytes == 128 * 1024
    assert cfg.crypto.helper_cores == 2
    assert cfg.crypto.library == "cryptopp"
    assert cfg.crypto.bytework == "real"
    # an explicit plan bypasses the process-wide default entirely
    assert pinned.crypto == CryptoPlan()


def test_set_default_plan_returns_previous_and_typechecks():
    first = parse_crypto_plan("cryptmpi")
    assert defaults.current().crypto is None
    with defaults.use(crypto=first) as installed:
        assert installed.crypto == first
        assert defaults.current() is installed
    # leaving the block brings the previous value back
    assert defaults.current().crypto is None
    with pytest.raises(TypeError, match="CryptoPlan"):
        with defaults.use(crypto="cryptmpi"):
            pass
    assert defaults.current().crypto is None


def test_conflicting_libraries_are_an_error():
    with pytest.raises(ValueError, match="conflicting libraries"):
        SecurityConfig(library="openssl",
                       crypto=CryptoPlan(library="libsodium"))


def test_library_reconciliation_fills_the_defaulted_side():
    via_config = SecurityConfig(library="openssl", crypto=CryptoPlan())
    assert via_config.crypto.library == "openssl"
    assert via_config.library == "openssl"
    via_plan = SecurityConfig(crypto=CryptoPlan(library="openssl"))
    assert via_plan.library == "openssl"
    assert via_config == via_plan
