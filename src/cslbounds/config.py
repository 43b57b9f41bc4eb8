"""JSON run configuration with defaults reproducing the reference
heavy-water exposure (254.2 live days inside a 5.5 m fiducial radius).

Every key is optional; unknown keys are rejected with their full path so
typos cannot silently fall back to defaults. One table, SCHEMA, declares
each key once: parsing, overriding and serializing all walk it. A key's
domain is the one its record field declares, so a value outside it is
reported with the key's path and the record's phrase.
"""

from __future__ import annotations

import json
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
from .records import Constraint, Record, greater_than_one, non_negative, positive
from .uncertainty import AsymmetricValue


class ConfigError(ValueError):
    """Invalid configuration document."""


class ModelSpec(Record):
    """Bound-state model selection."""

    kind: ModelKind = ModelKind.ZERO_RANGE
    binding_energy_mev: float = positive(2.224575)
    beta_over_kappa: float = greater_than_one(HULTHEN_BETA_OVER_KAPPA)


class RunConfig(Record):
    collapse: CollapseParams
    experiment: ExperimentConfig
    sphere: SphereVisibilityConfig
    scan: ScanSpec
    model: ModelSpec
    n_sigma: float = non_negative(1.0)


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


def _read_declared(check: Constraint, raw: Any, where: str) -> Any:
    """A JSON number checked against the domain its record field declares; null where
    the field's default is None."""
    if raw is None and check.default is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, check.number)):
        raise ConfigError(f"{where}: expected {check.kind} (got {raw!r})")
    try:
        value = check.number(raw)
    except OverflowError:   # a JSON integer beyond the largest float
        raise ConfigError(f"{where}: expected {check.kind} within the float range (got {raw!r})") from None
    violated = check.violated_by(value)
    if violated:
        raise ConfigError(f"{where}: must be {violated} (got {raw!r})")
    return value


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


class Field(Record):
    """One JSON key: the record field it sets and the reader that checks it, by default
    the domain the record declares for the field."""

    key: str
    attr: str
    read: Reader | None = None
    write: Callable[[Any], Any] = lambda value: value

    def parse(self, raw: Any, where: str, parent: Record) -> Any:
        """The value raw gives the field in parent, the record holding it."""
        if self.read is None:
            return _read_declared(type(parent)._checks[self.attr], raw, where)
        return self.read(raw, where)

    def dump(self, value: Any) -> Any:
        return self.write(value)


class Section(Record):
    """A JSON object mapped onto a frozen record; absent keys keep the default's values."""

    key: str
    attr: str
    fields: tuple[Field | Section, ...]

    def parse(self, node: Any, where: str, parent: Record) -> Any:
        return self.update(getattr(parent, self.attr), node, where)

    def update(self, default: Record, node: Any, where: str) -> Record:
        """default with the keys node sets changed, each checked."""
        if not isinstance(node, dict):
            raise ConfigError(f"{where or 'document root'}: expected an object (got {type(node).__name__})")
        by_key = {f.key: f for f in self.fields}
        for key in node:
            if key not in by_key:
                raise ConfigError(f"{_join(where, key)}: unknown key")
        changes = {
            f.attr: f.parse(node[f.key], _join(where, f.key), default)
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


# the root section's record is the RunConfig itself, so it is parsed through `update`
SCHEMA = Section("", "", (
    Section("collapse", "collapse", (
        Field("lambda_per_sec", "lambda_rate"),
        Field("a_cm", "a_length"),
        Field("g_n", "g_n"),
        Field("g_e", "g_e"),
    )),
    Section("experiment", "experiment", (
        Field("live_time_days", "live_time_days"),
        Field("fiducial_radius_m", "fiducial_radius_m"),
        Field("deuteron_density_per_cc", "deuteron_density_per_cc"),
        Field("efficiency", "efficiency"),
        Section("observed", "observed", (
            Field("value", "value"),
            Field("stat_up", "stat_up"),
            Field("stat_down", "stat_down"),
            Field("syst_up", "syst_up"),
            Field("syst_down", "syst_down"),
        )),
        Section("ssm_rate_per_day", "ssm_rate_per_day", (
            Field("value", "central"),
            Field("up", "err_up"),
            Field("down", "err_down"),
        )),
    )),
    Section("sphere", "sphere", (
        Field("diameter_cm", "diameter_cm"),
        Field("nucleon_count", "nucleon_count"),
        Field("perception_time_s", "perception_time_s"),
        Field("margin", "collapse_margin"),
    )),
    Section("scan", "scan", (
        Field("min", "lo"),
        Field("max", "hi"),
        Field("points", "points"),
        Field("log_spacing", "log_spacing", _flag),
    )),
    Section("model", "model", (
        Field("kind", "kind", _model_kind, write=lambda kind: kind.value),
        Field("binding_energy_mev", "binding_energy_mev"),
        Field("beta_over_kappa", "beta_over_kappa"),
    )),
    Field("n_sigma", "n_sigma"),
))


def parse_config(document: str | bytes) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        root = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return SCHEMA.update(default_config(), root, "")


def update_config(rc: RunConfig, changes: dict) -> RunConfig:
    """Apply schema-shaped changes to rc, checked as a config document's keys are."""
    return SCHEMA.update(rc, changes, "")


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
