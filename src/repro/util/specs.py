"""The one ``key=value,...`` grammar of every run-setting spec string.

Crypto plans, fault plans, resilience policies, stats specs and fabric
specs all write their options this way (after a ``MODE:``/``BASE:``
head their parser splits off), and all fail the same way on bad input:
an item without ``=`` is malformed, an unknown key lists every valid
spelling, a field given twice (directly or through an alias) raises
instead of silently keeping the last value, and a value its converter
rejects names the key and the expected form.  Range checks stay in
each setting's ``__post_init__``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping


def parse_options(
    body: str,
    kind: str,
    fields: Mapping[str, tuple[str, Callable[[str], Any], str]],
) -> dict[str, Any]:
    """Parse ``"key=value,..."`` into ``{field: converted value}``.

    *fields* maps each spelled key to ``(field, converter, expected
    form)``; an alias is one more spelled key naming the same field.
    Blank items are skipped and whitespace is stripped; *kind*
    (``"crypto"``, ``"fault"``, …) names the setting in every error.
    """
    kwargs: dict[str, Any] = {}
    given: dict[str, str] = {}
    for item in filter(None, (p.strip() for p in body.split(","))):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed {kind} option {item!r} (need key=value)")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ValueError(
                f"unknown {kind} option {key!r}; valid: " + ", ".join(fields)
            )
        field, convert, expected = fields[key]
        if field in given:
            raise ValueError(
                f"duplicate {kind} option {key!r}: conflicting {kind} option "
                f"{given[field]!r} already set {field!r} (aliases count as "
                "the same key)"
            )
        given[field] = key
        try:
            kwargs[field] = convert(value)
        except ValueError:
            raise ValueError(
                f"{kind} option {key} must be {expected}, got {value!r}"
            ) from None
    return kwargs
