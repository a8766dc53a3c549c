"""Type checks for the configuration and layer-spec dataclasses, driven by
their annotations."""

from __future__ import annotations

from dataclasses import fields


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field annotation -> accepts the value
TYPE_CHECKS = {
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": _is_real,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple | None": lambda v: v is None or isinstance(v, tuple),
}


def check_field_types(obj) -> None:
    """Raise TypeError naming the first field of dataclass `obj` whose value
    does not match its annotation."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not TYPE_CHECKS[f.type](value):
            raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
