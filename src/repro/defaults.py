"""The process-wide run defaults: one frozen value, one context manager.

``--crypto``, ``--runtime`` and ``--sanitize`` on the campaign and CLI
commands apply to every simulated job the command runs, including jobs
in fork-pool workers, which inherit the value at fork time.  The three
settings travel together as one :class:`RunDefaults`, installed for the
duration of a ``with`` block and restored afterwards, even when the
block raises::

    from repro import defaults

    with defaults.use(crypto=plan, engine=options, sanitize=True):
        ...  # every job here, and every worker forked here, sees them

Readers call :func:`current`:
:func:`repro.encmpi.plan.apply_default_plan`,
:func:`repro.des.options.resolve_engine_options` and
:func:`repro.analysis.sanitize.resolve_sanitize`.

The value is a plain module global, not a ``ContextVar``: thread-runtime
ranks build their ``SecurityConfig`` on their own threads, and on
Python 3.11 a new thread starts with an empty context.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.des.options import EngineOptions
    from repro.encmpi.plan import CryptoPlan


@dataclass(frozen=True)
class RunDefaults:
    """What a job uses for each setting its caller left unset.

    - ``crypto`` — pipeline geometry overlaid on every
      :class:`~repro.encmpi.config.SecurityConfig` built without an
      explicit plan (None: the paper's serial discipline);
    - ``engine`` — the rank runtime (None: ``EngineOptions()``);
    - ``sanitize`` — arm the runtime sanitizer.
    """

    crypto: CryptoPlan | None = None
    engine: EngineOptions | None = None
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.crypto is not None:
            from repro.encmpi.plan import CryptoPlan

            if not isinstance(self.crypto, CryptoPlan):
                raise TypeError(
                    f"crypto must be a CryptoPlan or None, got {self.crypto!r}"
                )
        if self.engine is not None:
            from repro.des.options import EngineOptions

            if not isinstance(self.engine, EngineOptions):
                raise TypeError(
                    f"engine must be an EngineOptions or None, "
                    f"got {self.engine!r}"
                )
        object.__setattr__(self, "sanitize", bool(self.sanitize))


_CURRENT = RunDefaults()


def current() -> RunDefaults:
    """The defaults in force right now."""
    return _CURRENT


@contextmanager
def use(
    *,
    crypto: CryptoPlan | None = None,
    engine: EngineOptions | None = None,
    sanitize: bool = False,
) -> Iterator[RunDefaults]:
    """Install ``RunDefaults(crypto, engine, sanitize)`` for the body of
    the ``with`` block; the previous value comes back on exit."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = RunDefaults(crypto=crypto, engine=engine, sanitize=sanitize)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
