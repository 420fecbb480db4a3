"""CryptoPlan: the typed crypto discipline of one encrypted job.

The paper's prototypes hardcode a single choice — every message is
sealed serially on the sending rank's core.  Its §V-C conclusion (and
the authors' follow-up, CryptMPI) is that this cannot keep up with the
fabric: large messages must be chunked and pipelined across helper
cores.  That turns "how to encrypt" into a *plan* with real knobs, so
the knobs live in one frozen value instead of loose keywords scattered
over :class:`~repro.encmpi.config.SecurityConfig`:

- ``library`` — whose calibrated cost profile is charged (the paper's
  §III choice: openssl/boringssl/libsodium/cryptopp);
- ``mode`` — ``"serial"`` (the paper: one seal per message on the
  rank's core) or ``"cryptmpi"`` (chunked seals scheduled on the node's
  helper cores, overlapped with the wire transfer);
- ``chunk_bytes`` / ``helper_cores`` — the cryptmpi pipeline geometry
  (``helper_cores=None`` uses every idle helper on the node);
- ``bytework`` — ``"real"`` performs the AEAD byte work, ``"modeled"``
  charges only virtual time.

``parse_crypto_plan("cryptmpi:chunk=256k,cores=3")`` is the CLI string
form, mirroring :func:`repro.simmpi.faults.parse_fault_plan` and
:func:`repro.simmpi.resilience.parse_resilience_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import defaults
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.util.specs import parse_options
from repro.util.units import parse_size

#: CryptMPI's default pipeline unit (64 KiB in the paper's code for
#: point-to-point; 256 KiB amortizes the per-chunk +28 B and per-call
#: overhead better at the sizes where pipelining pays at all)
DEFAULT_CHUNK_BYTES = 256 * 1024

CRYPTO_PLAN_MODES = ("serial", "cryptmpi")

#: how payload bytes are processed:
#: - "real": every message is genuinely sealed/opened with AES-GCM
#:   (tamper detection included) by the fastest available backend —
#:   wall-clock cost proportional to traffic;
#: - "modeled": only virtual time is charged (the calibrated profile);
#:   payloads travel as-is inside the simulator.  Benchmarks use this so
#:   multi-gigabyte sweeps stay fast; correctness of the crypto path is
#:   covered by "real"-mode tests.
BYTEWORK_MODES = ("real", "modeled")


@dataclass(frozen=True)
class CryptoPlan:
    """Frozen description of how an encrypted job seals its traffic."""

    library: str = "boringssl"
    mode: str = "serial"
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: cap on helper cores one operation may occupy; None = every idle
    #: helper on the node (a rank's own core never counts as a helper)
    helper_cores: int | None = None
    bytework: str = "real"

    def __post_init__(self) -> None:
        if self.library not in PROFILED_LIBRARIES:
            raise ValueError(
                f"unknown library {self.library!r}; choose from {PROFILED_LIBRARIES}"
            )
        if self.mode not in CRYPTO_PLAN_MODES:
            raise ValueError(
                f"crypto plan mode must be one of {CRYPTO_PLAN_MODES}, "
                f"got {self.mode!r}"
            )
        if self.chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        if self.helper_cores is not None and self.helper_cores < 0:
            raise ValueError(
                f"helper_cores must be >= 0 or None, got {self.helper_cores}"
            )
        if self.bytework not in BYTEWORK_MODES:
            raise ValueError(
                f"bytework must be one of {BYTEWORK_MODES}, got {self.bytework!r}"
            )

    @property
    def pipelined(self) -> bool:
        return self.mode == "cryptmpi"

    def token(self) -> str:
        """Canonical string form (stable: used in cache keys)."""
        cores = "auto" if self.helper_cores is None else str(self.helper_cores)
        return (
            f"{self.mode}:chunk={self.chunk_bytes},cores={cores},"
            f"library={self.library},bytework={self.bytework}"
        )


_CRYPTO_OPTIONS = {
    "chunk": ("chunk_bytes", parse_size, "a size like '256k'"),
    "cores": ("helper_cores", lambda v: None if v == "auto" else int(v),
              "an integer or 'auto'"),
    "library": ("library", str, "a library name"),
    "bytework": ("bytework", str, "'real' or 'modeled'"),
}


def parse_crypto_plan(spec: str) -> CryptoPlan:
    """Parse ``"MODE[:key=value,...]"`` into a :class:`CryptoPlan`.

    ``MODE`` is ``serial`` or ``cryptmpi``; keys are ``chunk`` (a size,
    e.g. ``256k``), ``cores`` (an int or ``auto``), ``library``, and
    ``bytework`` (``real``/``modeled``).  Examples::

        parse_crypto_plan("serial")
        parse_crypto_plan("cryptmpi:chunk=256k,cores=3")
        parse_crypto_plan("cryptmpi:library=openssl,bytework=modeled")

    An unknown mode raises :class:`ValueError` naming the valid ones;
    the options follow :func:`repro.util.specs.parse_options`.
    """
    mode, _sep, rest = spec.strip().partition(":")
    mode = mode.strip().lower()
    if mode not in CRYPTO_PLAN_MODES:
        raise ValueError(
            f"unknown crypto plan mode {mode!r}; valid: "
            + ", ".join(CRYPTO_PLAN_MODES)
        )
    return CryptoPlan(mode=mode, **parse_options(rest, "crypto", _CRYPTO_OPTIONS))


def apply_default_plan(plan: CryptoPlan) -> CryptoPlan:
    """Overlay the process-wide default's pipeline geometry onto *plan*.

    Only the geometry (mode, chunk_bytes, helper_cores) of the default
    (:func:`repro.defaults.current`, set by ``--crypto`` on the
    run/campaign CLI) applies — *plan* keeps its own library and
    bytework, which are calibration choices of the workload, not of the
    campaign invocation.
    """
    default = defaults.current().crypto
    if default is None:
        return plan
    return replace(
        plan,
        mode=default.mode,
        chunk_bytes=default.chunk_bytes,
        helper_cores=default.helper_cores,
    )


def workload_plan(library: str | None,
                  crypto: CryptoPlan | None = None) -> CryptoPlan | None:
    """The plan a benchmark workload seals with; None for the baseline.

    *crypto* contributes the pipelining discipline (None adopts the
    process-wide default through :func:`apply_default_plan`); the
    workload's own *library* and the simulator's ``"modeled"`` byte work
    always override it.
    """
    if library is None:
        return None
    base = crypto if crypto is not None else apply_default_plan(CryptoPlan())
    return replace(base, library=library, bytework="modeled")
