import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import cslbounds
from cslbounds import (
    AsymmetricValue,
    BoundStateModel,
    CollapseParams,
    ConfigError,
    ConstraintError,
    ExperimentConfig,
    ModelKind,
    ObservedCounts,
    RunConfig,
    ScanSpec,
    SphereVisibilityConfig,
    config_to_dict,
    default_config,
    load_config,
    net_csl_counts,
    parse_config,
    run_full_analysis,
)
from cslbounds.config import RENAMED
from cslbounds.records import Record


def test_empty_document_gives_defaults():
    assert parse_config("{}") == default_config()


def test_bytes_input_accepted():
    assert parse_config(b"{}") == default_config()


def test_bytes_that_are_not_utf8_are_a_config_error():
    with pytest.raises(ConfigError, match=r"^invalid UTF-8 at byte 12: invalid start byte$"):
        parse_config(b'{"n_sigma": \xff}')


def test_default_experiment_reproduces_reference_counts():
    cfg = parse_config("{}")
    _, _, n_csl = net_csl_counts(cfg.experiment)
    assert n_csl.central == pytest.approx(56, abs=3)
    assert n_csl.err_up == pytest.approx(608, abs=3)
    assert n_csl.err_down == pytest.approx(725, abs=3)


def test_efficiency_invariant_violation_names_key_and_constraint():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment":{"efficiency":0}}')
    message = str(err.value)
    assert "experiment.efficiency" in message
    assert "(0,1]" in message
    assert "0" in message


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="experiment.fudge: unknown key"):
        parse_config('{"experiment":{"fudge":1}}')
    with pytest.raises(ConfigError, match="bogus: unknown key"):
        parse_config('{"bogus":{}}')
    with pytest.raises(ConfigError, match="experiment.observed.value_typo: unknown key"):
        parse_config('{"experiment":{"observed":{"value_typo":3}}}')


@pytest.mark.parametrize(
    "document, path",
    [
        # the first value is out of its domain; a parser that keeps the last would hide it
        ('{"n_sigma": -1, "n_sigma": 2.0, "scan": {"points": 3}, "scan": {"points": 5}}', "n_sigma"),
        ('{"experiment": {"efficiency": 0, "efficiency": 0.5}}', "experiment.efficiency"),
        ('{"scan": {"points": 3, "points": 5}}', "scan.points"),
        ('{"experiment": {"observed": {"value": 1, "stat_up": 2, "value": 1}}}', "experiment.observed.value"),
        ('{"bogus": 1, "bogus": 1}', "bogus"),
    ],
)
def test_duplicate_keys_rejected_with_path(document, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: duplicate key$"):
        parse_config(document)


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": \n  {"efficiency": }}')
    message = str(err.value)
    assert "line 2" in message
    assert "column" in message


def test_a_document_nested_past_the_recursion_limit_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^invalid JSON: \S") as err:
        parse_config('{"sphere": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert "\n" not in str(err.value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="integers have no digit limit")
def test_an_integer_past_the_digit_limit_is_a_config_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ConfigError, match="^" + re.escape(f"invalid JSON: Exceeds the limit ({limit} digits)")):
        parse_config('{"n_sigma": 1' + "0" * limit + "}")


def test_type_errors_rejected():
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config('{"experiment":{"efficiency":"high"}}')
    with pytest.raises(ConfigError, match="expected an object"):
        parse_config('{"experiment": 3}')
    with pytest.raises(ConfigError, match="expected an object"):
        parse_config("[1,2]")
    with pytest.raises(ConfigError, match="scan.points"):
        parse_config('{"scan":{"points": 2.5}}')
    with pytest.raises(ConfigError, match="log_spacing"):
        parse_config('{"scan":{"log_spacing": "yes"}}')


def test_value_constraints():
    with pytest.raises(ConfigError, match="n_sigma"):
        parse_config('{"n_sigma": -1}')
    with pytest.raises(ConfigError, match="scan"):
        parse_config('{"scan":{"min": 2.0, "max": 1.0}}')
    with pytest.raises(ConfigError, match="model.kind"):
        parse_config('{"model":{"kind":"square-well"}}')
    with pytest.raises(ConfigError, match="beta_over_kappa"):
        parse_config('{"model":{"beta_over_kappa": 0.9}}')
    with pytest.raises(ConfigError, match="collapse.lambda_per_sec"):
        parse_config('{"collapse":{"lambda_per_sec": -1e-16}}')


# values outside each declared domain, by its phrase; a domain missing here fails the test below
VIOLATING = {
    "positive": [0.0, -1.0, math.nan, math.inf],
    "non-negative": [-1e-300, -math.inf, math.nan],
    "a finite number": [math.nan, math.inf, -math.inf],
    "in (0,1]": [0.0, 1.5, math.nan],
    "greater than 1": [1.0, 0.5, math.inf],
    "at least 2": [1, 0, -5],
    "one of zero-range, hulthen": ["square-well", "Hulthen", "", 1, True, None, []],
    "true or false": [],   # a flag's domain is its kind; a value of another kind is refused below
}

# values of another kind than each field's, by the kind's name; a RunConfig holding n_sigma=True
# would serialize to `"n_sigma": true`, which parse_config refuses
WRONG_KIND = {
    "a number": ["1.5", True, None, [1.0], {}],
    "an integer": [2.0, 2.5, "2", True, None],
    "true or false": [1, 0, 1.0, "true", None],
    "one of zero-range, hulthen": [],   # a model kind is read by its value, so any other value is outside the domain
}


def schema_fields(record=None, path=""):
    """(JSON path, the record holding the field, its attr, the value it holds) for every key
    of the config, found by walking the config records as the parser does."""
    record = default_config() if record is None else record
    for attr in record._fields:
        key = RENAMED.get(attr, attr)
        where = f"{path}.{key}" if path else key
        value = getattr(record, attr)
        if isinstance(value, Record):
            yield from schema_fields(value, where)
        else:
            yield where, record, attr, value


# every config key; no record outside the config declares a domain
DECLARED = list(schema_fields())


def nested(where, value):
    for key in reversed(where.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("where, record, attr, held", DECLARED, ids=[w for w, _, _, _ in DECLARED])
def test_declared_domain_is_checked_by_record_and_config(where, record, attr, held):
    # a key is read by the domain its record declares
    check = type(record)._checks.get(attr)
    assert check is not None, f"{where} has no declared domain"
    for bad in VIOLATING[check.phrase]:
        with pytest.raises(ConstraintError, match=re.escape(f"{attr}: must be {check.phrase} (got {bad!r})")):
            record.replace(**{attr: bad})
        with pytest.raises(ConfigError, match=re.escape(f"{where}: must be {check.phrase} (got {bad!r})")):
            parse_config(json.dumps(nested(where, bad)))


@pytest.mark.parametrize("where, record, attr, held", DECLARED, ids=[w for w, _, _, _ in DECLARED])
def test_a_value_of_another_kind_is_refused_by_record_and_config(where, record, attr, held):
    check = type(record)._checks[attr]
    for bad in WRONG_KIND[check.kind]:
        if bad is None and check.default is None:
            continue   # None is the value of an unset coupling
        with pytest.raises(ConstraintError, match=re.escape(f"{attr}: expected {check.kind} (got {bad!r})")):
            record.replace(**{attr: bad})
        with pytest.raises(ConfigError, match=re.escape(f"{where}: expected {check.kind} (got {bad!r})")):
            parse_config(json.dumps(nested(where, bad)))


@pytest.mark.parametrize("where", [w for w, r, a, _ in schema_fields() if r._checks[a].kind == "a number"])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_beyond_float_range_is_config_error(where, sign):
    # json reads such an integer exactly; it is user input that no float field can hold
    raw = sign * 10**400
    with pytest.raises(ConfigError, match=re.escape(f"{where}: expected a number within the float range (got {raw!r})")):
        parse_config(json.dumps(nested(where, raw)))


@pytest.mark.parametrize("where, record, attr, held", DECLARED, ids=[w for w, _, _, _ in DECLARED])
def test_record_and_config_word_a_refused_value_alike(where, record, attr, held):
    # one Constraint words the refusal; the record prefixes the field's name, the config the key's path
    check = type(record)._checks[attr]
    beyond_float_range = [10**400, -(10**400)] if check.kind == "a number" else []
    for bad in [*VIOLATING[check.phrase], *WRONG_KIND[check.kind], *beyond_float_range]:
        if bad is None and check.default is None:
            continue
        with pytest.raises(ConstraintError) as by_record:
            record.replace(**{attr: bad})
        with pytest.raises(ConfigError) as by_config:
            parse_config(json.dumps(nested(where, bad)))
        record_says, config_says = str(by_record.value), str(by_config.value)
        assert record_says.startswith(f"{attr}: ") and config_says.startswith(f"{where}: ")
        assert record_says[len(attr) + 2 :] == config_says[len(where) + 2 :]


def test_every_record_that_declares_a_domain_is_walked():
    exported = {obj for obj in vars(cslbounds).values() if isinstance(obj, type) and issubclass(obj, Record)}
    assert {cls for cls in exported if cls._checks} == {type(record) for _, record, _, _ in DECLARED}


def test_overrides_apply():
    cfg = parse_config(json.dumps({
        "collapse": {"g_n": 0.5, "lambda_per_sec": 2e-16},
        "experiment": {"efficiency": 0.5},
        "model": {"kind": "hulthen", "beta_over_kappa": 5.0},
        "scan": {"min": 1e-9, "max": 1.0, "points": 11, "log_spacing": False},
        "n_sigma": 2.0,
    }))
    assert cfg.collapse.g_n == 0.5
    assert cfg.collapse.lambda_rate == 2e-16
    assert cfg.experiment.efficiency == 0.5
    assert cfg.model.kind is ModelKind.HULTHEN
    assert cfg.scan.points == 11 and not cfg.scan.log_spacing
    assert cfg.n_sigma == 2.0


def test_null_couplings_stay_unset():
    cfg = parse_config('{"collapse":{"g_n": null}}')
    assert cfg.collapse.g_n is None


def test_round_trip_default():
    cfg = default_config()
    assert parse_config(json.dumps(config_to_dict(cfg), indent=2)) == cfg


def test_round_trip_modified():
    cfg = parse_config('{"collapse":{"g_n":0.25},"model":{"kind":"hulthen"},"n_sigma":1.64}')
    assert parse_config(json.dumps(config_to_dict(cfg), indent=2)) == cfg
    # and the dict form carries the schema keys
    d = config_to_dict(cfg)
    assert d["model"]["kind"] == "hulthen"
    assert d["collapse"]["g_n"] == 0.25


def test_changes_are_read_after_the_document_and_set_over_it():
    # the model is built once, from the document and the changes together
    huge = {"kind": "hulthen", "binding_energy_mev": 1.0, "beta_over_kappa": 1e155}
    cfg = parse_config(json.dumps({"model": huge}), {"model": {"kind": "zero-range"}})
    assert cfg.model == BoundStateModel(ModelKind.ZERO_RANGE, 1.0, 1e155)
    with pytest.raises(OverflowError, match=re.escape("beta/kappa 1e+155 is outside the float range")):
        parse_config(json.dumps({"model": huge}))
    # an input error in the document, then in the changes, comes before the model's failure
    with pytest.raises(ConfigError, match=re.escape("n_sigma: must be non-negative (got -5)")):
        parse_config(json.dumps({"model": huge, "n_sigma": -5}), {"n_sigma": 1.0})
    with pytest.raises(ConfigError, match=re.escape("n_sigma: must be non-negative (got -1.0)")):
        parse_config(json.dumps({"model": huge}), {"n_sigma": -1.0})
    assert load_config(None, {"n_sigma": 2.0, "model": {"kind": "hulthen"}}) == default_config().replace(
        n_sigma=2.0, model=BoundStateModel(ModelKind.HULTHEN)
    )


def test_load_config(tmp_path):
    assert load_config(None) == default_config()
    path = tmp_path / "run.json"
    path.write_text('{"n_sigma": 2.0}')
    assert load_config(str(path)).n_sigma == 2.0
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
coupling = st.none() | non_negative


@st.composite
def models(draw):
    ratio = st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
    args = draw(st.tuples(st.sampled_from(ModelKind), positive, ratio))
    try:
        return BoundStateModel(*args)
    except OverflowError:   # a model floats cannot hold cannot be built; test_cli covers such documents
        reject()


@st.composite
def scan_specs(draw):
    lo, hi = sorted(draw(st.lists(positive, min_size=2, max_size=2, unique=True)))
    return ScanSpec(lo=lo, hi=hi, points=draw(st.integers(min_value=2, max_value=10**6)), log_spacing=draw(st.booleans()))


run_configs = st.builds(
    RunConfig,
    collapse=st.builds(CollapseParams, lambda_rate=positive, a_length=positive, g_e=coupling, g_n=coupling),
    experiment=st.builds(
        ExperimentConfig,
        live_time_days=positive,
        fiducial_radius_m=positive,
        deuteron_density_per_cc=positive,
        efficiency=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        observed=st.builds(
            ObservedCounts,
            value=finite,
            stat_up=non_negative,
            stat_down=non_negative,
            syst_up=non_negative,
            syst_down=non_negative,
        ),
        ssm_rate_per_day=st.builds(AsymmetricValue, central=finite, err_up=non_negative, err_down=non_negative),
    ),
    sphere=st.builds(
        SphereVisibilityConfig,
        diameter_cm=positive,
        nucleon_count=positive,
        perception_time_s=positive,
        collapse_margin=positive,
    ),
    scan=scan_specs(),
    model=models(),
    n_sigma=non_negative,
)


@st.composite
def physical_configs(draw, scales=(0.5, 2.0, 6.0), scaled_counts=0.3, max_points=ScanSpec().points):
    """Config documents around the defaults, not all of which parse: about half the numbers each moved by a
    factor 10^U(-s, s), s drawn from scales, a share scaled_counts of the observed counts scaled by U(0.5, 1.2),
    a drawn model kind, g_n set or not, and the scan cut to at most max_points, its default's by default, so no
    run holds a large grid."""

    def move(node):
        if isinstance(node, dict):
            return {key: move(value) for key, value in node.items()}
        if isinstance(node, float) and draw(st.booleans()):
            s = draw(st.sampled_from(scales))
            return node * 10.0 ** draw(st.floats(-s, s))
        return node

    doc = move(config_to_dict(default_config()))
    if scaled_counts and draw(st.floats(0.0, 1.0)) < scaled_counts:
        doc["experiment"]["observed"]["value"] *= draw(st.floats(0.5, 1.2))
    doc["scan"]["points"] = draw(st.integers(2, max_points))
    doc["model"]["kind"] = draw(st.sampled_from([kind.value for kind in ModelKind]))
    doc["collapse"]["g_n"] = draw(st.none() | st.floats(0.0, 3.0))
    return doc


@given(run_configs)
def test_round_trip_generated(cfg):
    assert parse_config(json.dumps(config_to_dict(cfg), indent=2)) == cfg


def as_python_gives(value):
    """The ways Python code may give a field of the default config a value: a float as itself, a numpy float
    or, where it is at least 1, its floor as an int or a numpy int; an int as itself or a numpy int; a model
    kind as either member or either value; a flag as either bool."""
    if isinstance(value, ModelKind):
        return st.sampled_from([*ModelKind, *(kind.value for kind in ModelKind)])
    if isinstance(value, bool):
        return st.booleans()
    if value is None:
        return st.none()
    ints = [math.floor(value)] if value >= 1 else []
    ints += [np.int64(i) for i in ints if i < 2**63]
    return st.sampled_from([value, np.float64(value), np.float32(value), *ints] if isinstance(value, float) else ints)


@st.composite
def python_built(draw, record):
    """record with each leaf field given as Python code may give it, each record built by its constructor."""
    fields = {}
    for name in record._fields:
        value = getattr(record, name)
        fields[name] = draw(python_built(value) if isinstance(value, Record) else as_python_gives(value))
    return type(record)(**fields)


@settings(max_examples=30, deadline=None)
@given(python_built(default_config()))
@example(default_config().replace(model=BoundStateModel(kind="hulthen")))
def test_a_config_built_in_python_analyzes_as_its_json_does(cfg):
    # a record holds a value as it reads it, so the JSON of a config built in Python reads back to the same config
    twin = parse_config(json.dumps(config_to_dict(cfg), indent=2))
    assert twin == cfg
    report, twin_report = run_full_analysis(cfg), run_full_analysis(twin)
    for name in ("model_r2_cm2", "n_limit", "gn_bound_at_grw", "ge_half_width_at_grw", "ge_upper_at_grw"):
        assert getattr(report, name).hex() == getattr(twin_report, name).hex(), name
    assert report == twin_report


def _readme_schema() -> dict:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration schema", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def _assert_documented(documented, actual, path):
    if isinstance(actual, dict):
        assert isinstance(documented, dict) and documented.keys() == actual.keys(), path
        for key, value in actual.items():
            _assert_documented(documented[key], value, f"{path}.{key}")
    elif isinstance(actual, float):
        # the README rounds, for example (2/3)e23 to 6.667e22
        assert documented == pytest.approx(actual, rel=1e-3, abs=0), path
    else:
        assert type(documented) is type(actual) and documented == actual, path


def test_readme_schema_lists_every_key_with_its_default():
    _assert_documented(_readme_schema(), config_to_dict(default_config()), "README schema")


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"{run_full_analysis(default_config()).gn_bound_at_grw} 0.008"
    # each printed line shows the numbers of its print's comment, where `...` stands for further digits
    comments = [line.partition("#")[2] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        numbers = re.findall(r"\d+\.\d+(?:\.\.\.)?(?:e[+-]?\d+)?", comment)
        patterns = [re.escape(number).replace(re.escape("..."), r"\d+") for number in numbers]
        assert len(patterns) == len(line.split()) and all(map(re.fullmatch, patterns, line.split())), (line, comment)
