"""Checked reading of JSON objects: config files, inline and preset models,
schedule files. Every file is read through _read_json, and every object
through _require and a key table; a bad value raises ConfigError, whose
message starts with the key path."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path


class ConfigError(ValueError):
    pass


def _read_json(path, label: str = ""):
    """The parsed JSON of the UTF-8 file at path. A file that cannot be read,
    is not UTF-8 or is not JSON raises ConfigError naming label and path."""
    at = f"{label}: " if label else ""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{at}cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{at}{path} is not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{at}{path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc


def _require(doc, path: str, table: dict) -> dict:
    """Checked values of the keys of JSON object doc that table lists: table
    maps each key to (required, check), and check(value, key path) returns
    the value to keep. Keys are checked in table order, then unlisted keys."""
    if not isinstance(doc, dict):
        msg = f"expected an object, got {doc!r}"
        raise ConfigError(f"{path}: {msg}" if path else msg)
    at = path + "." if path else ""
    out = {}
    for key, (required, check) in table.items():
        if key in doc:
            out[key] = check(doc[key], at + key)
        elif required:
            raise ConfigError(f"{at}{key}: missing required key")
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"{at}{sorted(unknown)[0]}: unknown key")
    return out


@contextmanager
def _building(loc: str):
    """Re-raise a library constructor's ValueError as a config error at loc."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{loc}: {exc}" if loc else str(exc)) from exc


def _as_is(v, loc):
    return v


def _kind(name: str):
    """The check of an object's optional "kind": it must name the kind read."""
    def check(v, loc):
        if v != name:
            raise ConfigError(f"{loc}: expected {name!r}, got {v!r}")
        return v
    return check


def _json_number(v, what: str) -> float:
    """A finite JSON number as a float; a bool, a string or any other value
    is refused, never converted. Errors start with what."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{what}: expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(f"{what}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(v):
        raise ConfigError(f"{what}: must be finite, got {v}")
    return v


def _json_int(v, what: str) -> int:
    """A JSON integer; a bool, a float or a string is refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{what}: expected an integer, got {v!r}")
    return v


def _json_array(v, what: str):
    """Nested JSON lists whose leaves pass _json_number, as float lists."""
    if isinstance(v, (list, tuple)):
        return [_json_array(x, what) for x in v]
    return _json_number(v, what)
