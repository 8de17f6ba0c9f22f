"""Plain-text `key = value` configuration files with `#` comments."""
from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path

# the values a config file may give each field type (annotations are strings)
_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def parse_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip()] = _coerce(raw.strip())
    return values


def _coerce(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def check_fields(cls, values: dict, name=repr) -> None:
    """Raise ``ValueError`` unless every key of ``values`` is a field of the
    dataclass ``cls`` and its value has the field's type: no bool, and a
    float (or an int given for one) within float range. ``name(key)`` is
    the key as a message names it."""
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(values) - set(kinds)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(map(name, unknown)))}")
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, _TYPES[kinds[key]]):
            raise ValueError(f"config key {name(key)}: must be {kinds[key]}, got {value!r}")
        if kinds[key] == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"config key {name(key)}: must be finite, got {value!r}")
