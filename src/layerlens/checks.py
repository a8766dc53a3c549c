"""Type checks for the configuration dataclasses, driven by their annotations."""

from __future__ import annotations

from dataclasses import fields


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field annotation -> accepts the value
TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_real,
    "float | None": lambda v: v is None or _is_real(v),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def check_field_types(obj) -> None:
    """Raise TypeError naming the first field of dataclass `obj` whose value
    does not match its annotation."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not TYPE_CHECKS[f.type](value):
            raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
