"""EngineOptions: the rank runtime of one simulated job.

The coroutine rank runtime (see :mod:`repro.des.process`) introduced a
choice — generator ranks stepped in the engine context versus the
historical thread-per-rank fallback.  That choice lives in one frozen
value instead of a loose keyword, like
:class:`repro.encmpi.plan.CryptoPlan` does for crypto:

- ``runtime`` — ``"auto"`` (generator workloads become coroutines,
  plain ones get threads), ``"coroutines"`` (strict: plain rank
  functions are rejected), or ``"threads"`` (everything on OS threads,
  generators interpreted by :func:`repro.des.process.run_blocking`).

The rank-count ceiling of one job is the constant
:data:`repro.simmpi.world.MAX_RANKS`.  ``parse_engine_options`` reads
the CLI string form, which is just the runtime name.  The process-wide
default the campaign/CLI ``--runtime`` sets lives in
:mod:`repro.defaults`, next to the crypto plan and the sanitize flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import defaults
from repro.des.process import RUNTIMES


@dataclass(frozen=True)
class EngineOptions:
    """Frozen description of how a simulated job's ranks execute."""

    runtime: str = "auto"

    def __post_init__(self) -> None:
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"unknown runtime {self.runtime!r}; valid: " + ", ".join(RUNTIMES)
            )

    def token(self) -> str:
        """Canonical string form (stable: used in cache keys)."""
        return self.runtime


def parse_engine_options(spec: str) -> EngineOptions:
    """Parse a runtime name — ``auto``, ``coroutines`` or ``threads`` —
    into :class:`EngineOptions`; anything else raises :class:`ValueError`
    naming the valid runtimes."""
    return EngineOptions(runtime=spec.strip().lower())


def resolve_engine_options(
    value: "EngineOptions | str | None",
) -> EngineOptions:
    """Coerce an API argument (options, spec string, or None) to options;
    None means the process-wide default (:func:`repro.defaults.current`)."""
    if value is None:
        return defaults.current().engine or EngineOptions()
    if isinstance(value, str):
        return parse_engine_options(value)
    if isinstance(value, EngineOptions):
        return value
    raise TypeError(
        f"engine must be EngineOptions, a spec string, or None; got {value!r}"
    )
