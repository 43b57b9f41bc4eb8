"""JSON run configuration: the reader and writer of limits.RunConfig, the record of one run,
whose defaults are the reference heavy-water exposure (254.2 live days inside a 5.5 m
fiducial radius) at GRW strength.

Every key is optional; unknown keys, and keys an object gives twice, are rejected with
their full path so typos cannot silently fall back to defaults. The keys are the fields of
the config records, so parsing, overriding and serializing all walk the
records themselves; RENAMED holds the few keys that differ from their
field's name. Each value is read by the Constraint its record field
declares, and a value it refuses is reported with the key's path.
The `model` object is deuteron.BoundStateModel itself, so a model that
floats cannot hold raises its OverflowError as it is built. RunConfig
declares `model` last and the reader builds the fields in that order, so
every other key, and every change set over the document (the CLI's
--model and --nsigma), is read first: an input error anywhere comes first.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .deuteron import ModelKind
from .limits import RunConfig
from .records import ConstraintError, Record


class ConfigError(ValueError):
    """Invalid configuration document."""


def default_config() -> RunConfig:
    return RunConfig()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# the JSON keys that differ from the name of the record field they set
RENAMED = {
    "lambda_rate": "lambda_per_sec",
    "a_length": "a_cm",
    "central": "value",
    "err_up": "up",
    "err_down": "down",
    "collapse_margin": "margin",
    "lo": "min",
    "hi": "max",
}


class _Repeats(dict):
    """A JSON object that gives the keys in `repeated` more than once, the last value of each kept."""


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """An object as json.loads reads it: a _Repeats when it gives a key twice, for _update to name with its path."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeats(obj)
        obj.repeated = {key for key in keys if keys.count(key) > 1}
    return obj


def _update(default: Record, nodes: list, where: str) -> Record:
    """default with the keys each of nodes sets changed, a later node's value over an earlier's,
    each checked in turn; absent keys keep default's values. Each record is built once, from
    every node, its fields in declaration order, so a model floats cannot hold, declared last,
    raises its OverflowError only once every other key has been read."""
    fields = {RENAMED.get(name, name): name for name in default._fields}
    for node in nodes:
        if not isinstance(node, dict):
            raise ConfigError(f"{where or 'document root'}: expected an object (got {type(node).__name__})")
        for key in node:
            if key in getattr(node, "repeated", ()):
                raise ConfigError(f"{_join(where, key)}: duplicate key")
            if key not in fields:
                raise ConfigError(f"{_join(where, key)}: unknown key")
    changes = {}
    for key, name in fields.items():
        given = [node[key] for node in nodes if key in node]
        if not given:
            continue
        if name in default._checks:
            try:
                for raw in given:   # each checked, the last kept
                    changes[name] = default._checks[name].read(raw)
            except ConstraintError as exc:
                raise ConfigError(f"{_join(where, key)}: {exc}") from None
        else:
            changes[name] = _update(getattr(default, name), given, _join(where, key))
    try:
        return default.replace(**changes)
    except ValueError as exc:
        # an invariant across fields (scan min < max); report it under the JSON keys
        message = str(exc)
        for key, name in fields.items():
            message = re.sub(rf"\b{name}\b", key, message)
        raise ConfigError(f"{where}: {message}") from None


def _dump(value: Any) -> Any:
    if isinstance(value, Record):
        return {RENAMED.get(name, name): _dump(getattr(value, name)) for name in value._fields}
    return value.value if isinstance(value, ModelKind) else value


def parse_config(document: str | bytes, changes: dict | None = None) -> RunConfig:
    """Parse and validate a JSON configuration document, with schema-shaped changes set over
    its keys; they are checked as its keys are, after them."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    try:
        root = json.loads(document, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:   # an integer past the digit limit, nesting past the recursion limit
        raise ConfigError(f"invalid JSON: {exc}") from None
    return _update(default_config(), [root, changes or {}], "")


def load_config(path: str | None, changes: dict | None = None) -> RunConfig:
    """Read a config file, or the defaults when no path is given, with changes set over it
    as parse_config sets them."""
    if path is None:
        return parse_config("{}", changes)
    try:
        with open(path, "rb") as fh:
            document = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    return parse_config(document, changes)


def config_to_dict(rc: RunConfig) -> dict:
    """Schema-shaped dict; round-trips through parse_config."""
    return _dump(rc)
