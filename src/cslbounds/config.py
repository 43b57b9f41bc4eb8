"""JSON run configuration with defaults reproducing the reference
heavy-water exposure (254.2 live days inside a 5.5 m fiducial radius).

Every key is optional; unknown keys are rejected with their full path so
typos cannot silently fall back to defaults. One table, SCHEMA, declares
each key once: parsing, overriding and serializing all walk it.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Callable

from .constants import CollapseParams, grw_defaults
from .deuteron import HULTHEN_BETA_OVER_KAPPA, BoundStateModel, ModelKind, build_hulthen, build_zero_range
from .limits import (
    ExperimentConfig,
    ObservedCounts,
    ScanSpec,
    SphereVisibilityConfig,
)
from .records import Record
from .uncertainty import AsymmetricValue


class ConfigError(ValueError):
    """Invalid configuration document."""


class ModelSpec(Record):
    """Bound-state model selection."""

    kind: ModelKind = ModelKind.ZERO_RANGE
    binding_energy_mev: float = 2.224575
    beta_over_kappa: float = HULTHEN_BETA_OVER_KAPPA


class RunConfig(Record):
    collapse: CollapseParams
    experiment: ExperimentConfig
    sphere: SphereVisibilityConfig
    scan: ScanSpec
    model: ModelSpec
    n_sigma: float = 1.0


def build_model(spec: ModelSpec) -> BoundStateModel:
    """Construct the bound-state model a ModelSpec selects."""
    if spec.kind is ModelKind.ZERO_RANGE:
        return build_zero_range(spec.binding_energy_mev)
    return build_hulthen(spec.binding_energy_mev, spec.beta_over_kappa)


def default_config() -> RunConfig:
    return RunConfig(
        collapse=grw_defaults(),
        experiment=ExperimentConfig(
            live_time_days=254.2,
            fiducial_radius_m=5.5,
            deuteron_density_per_cc=(2.0 / 3.0) * 1e23,
            efficiency=0.40,
            observed=ObservedCounts(value=1344.2, stat_up=69.8, stat_down=69.0, syst_up=98.1, syst_down=96.8),
            ssm_rate_per_day=AsymmetricValue(central=13.0, err_up=2.6, err_down=2.08),
        ),
        sphere=SphereVisibilityConfig(),
        scan=ScanSpec(),
        model=ModelSpec(),
        n_sigma=1.0,
    )


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# Readers turn one JSON value into a field value; `where` is the key's full path.
Reader = Callable[[Any, str], Any]


def _number(check: Callable[[float], bool], constraint: str) -> Reader:
    def read(raw: Any, where: str) -> float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{where}: expected a number (got {raw!r})")
        value = float(raw)
        if not (math.isfinite(value) and check(value)):
            raise ConfigError(f"{where}: must be {constraint} (got {raw!r})")
        return value

    return read


def _optional(read: Reader) -> Reader:
    return lambda raw, where: None if raw is None else read(raw, where)


def _integer(at_least: int) -> Reader:
    def read(raw: Any, where: str) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{where}: expected an integer (got {raw!r})")
        if raw < at_least:
            raise ConfigError(f"{where}: must be at least {at_least} (got {raw!r})")
        return raw

    return read


def _flag(raw: Any, where: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{where}: expected true or false (got {raw!r})")
    return raw


def _model_kind(raw: Any, where: str) -> ModelKind:
    try:
        return ModelKind(raw)
    except ValueError:
        choices = ", ".join(k.value for k in ModelKind)
        raise ConfigError(f"{where}: must be one of {choices} (got {raw!r})") from None


_POSITIVE = _number(lambda v: v > 0, "positive")
_NON_NEGATIVE = _number(lambda v: v >= 0, "non-negative")
_FINITE = _number(lambda v: True, "a finite number")


class Field(Record):
    """One JSON key: the record field it sets and the reader that checks it."""

    key: str
    attr: str
    read: Reader
    write: Callable[[Any], Any] = lambda value: value

    def parse(self, raw: Any, where: str, default: Any) -> Any:
        return self.read(raw, where)

    def dump(self, value: Any) -> Any:
        return self.write(value)


class Section(Record):
    """A JSON object mapped onto a frozen record; absent keys keep the default's values."""

    key: str
    attr: str
    fields: tuple[Field | Section, ...]

    def parse(self, node: Any, where: str, default: Any) -> Any:
        if not isinstance(node, dict):
            raise ConfigError(f"{where or 'document root'}: expected an object (got {type(node).__name__})")
        by_key = {f.key: f for f in self.fields}
        for key in node:
            if key not in by_key:
                raise ConfigError(f"{_join(where, key)}: unknown key")
        changes = {
            f.attr: f.parse(node[f.key], _join(where, f.key), getattr(default, f.attr))
            for f in self.fields
            if f.key in node
        }
        try:
            return default.replace(**changes)
        except ValueError as exc:
            # an invariant across fields (scan min < max); report it under the JSON keys
            message = str(exc)
            for f in self.fields:
                message = re.sub(rf"\b{f.attr}\b", f.key, message)
            raise ConfigError(f"{where}: {message}") from None

    def dump(self, value: Any) -> dict:
        return {f.key: f.dump(getattr(value, f.attr)) for f in self.fields}


SCHEMA = Section("", "", (
    Section("collapse", "collapse", (
        Field("lambda_per_sec", "lambda_rate", _POSITIVE),
        Field("a_cm", "a_length", _POSITIVE),
        Field("g_n", "g_n", _optional(_NON_NEGATIVE)),
        Field("g_e", "g_e", _optional(_NON_NEGATIVE)),
    )),
    Section("experiment", "experiment", (
        Field("live_time_days", "live_time_days", _POSITIVE),
        Field("fiducial_radius_m", "fiducial_radius_m", _POSITIVE),
        Field("deuteron_density_per_cc", "deuteron_density_per_cc", _POSITIVE),
        Field("efficiency", "efficiency", _number(lambda v: 0 < v <= 1, "in (0,1]")),
        Section("observed", "observed", (
            Field("value", "value", _FINITE),
            Field("stat_up", "stat_up", _NON_NEGATIVE),
            Field("stat_down", "stat_down", _NON_NEGATIVE),
            Field("syst_up", "syst_up", _NON_NEGATIVE),
            Field("syst_down", "syst_down", _NON_NEGATIVE),
        )),
        Section("ssm_rate_per_day", "ssm_rate_per_day", (
            Field("value", "central", _FINITE),
            Field("up", "err_up", _NON_NEGATIVE),
            Field("down", "err_down", _NON_NEGATIVE),
        )),
    )),
    Section("sphere", "sphere", (
        Field("diameter_cm", "diameter_cm", _POSITIVE),
        Field("nucleon_count", "nucleon_count", _POSITIVE),
        Field("perception_time_s", "perception_time_s", _POSITIVE),
        Field("margin", "collapse_margin", _POSITIVE),
    )),
    Section("scan", "scan", (
        Field("min", "lo", _POSITIVE),
        Field("max", "hi", _POSITIVE),
        Field("points", "points", _integer(at_least=2)),
        Field("log_spacing", "log_spacing", _flag),
    )),
    Section("model", "model", (
        Field("kind", "kind", _model_kind, write=lambda kind: kind.value),
        Field("binding_energy_mev", "binding_energy_mev", _POSITIVE),
        Field("beta_over_kappa", "beta_over_kappa", _number(lambda v: v > 1, "greater than 1")),
    )),
    Field("n_sigma", "n_sigma", _NON_NEGATIVE),
))


def parse_config(document: str | bytes) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        root = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return SCHEMA.parse(root, "", default_config())


def update_config(rc: RunConfig, changes: dict) -> RunConfig:
    """Apply schema-shaped changes to rc, checked as a config document's keys are."""
    return SCHEMA.parse(changes, "", rc)


def load_config(path: str | None) -> RunConfig:
    """Read a config file, or return the defaults when no path is given."""
    if path is None:
        return default_config()
    try:
        with open(path, "rb") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None


def config_to_dict(rc: RunConfig) -> dict:
    """Schema-shaped dict; round-trips through parse_config."""
    return SCHEMA.dump(rc)


def serialize_config(rc: RunConfig) -> str:
    return json.dumps(config_to_dict(rc), indent=2)
