"""The record base every value type of the package is declared on: construction,
equality, hashing, immutability, repr and replace, checked on each exported record."""

import re

import numpy as np
import pytest

import cslbounds
from cslbounds import (
    AsymmetricValue,
    BoundStateModel,
    CollapseParams,
    ExclusionCurve,
    ModelKind,
    ScanSpec,
    default_config,
    grw_defaults,
    run_full_analysis,
)
from cslbounds.records import ConstraintError, Record, at_least_two, non_negative, positive

CFG = default_config()
REPORT = run_full_analysis(CFG.replace(scan=ScanSpec(points=3)))

# one instance of every record
EXAMPLES = [
    CollapseParams(1e-16, 1e-5, 0.5, 1.0),
    BoundStateModel(ModelKind.HULTHEN, 2.224575),
    AsymmetricValue(1.0, 2.0, 3.0),
    CFG.experiment.observed,
    CFG.experiment,
    CFG.sphere,
    CFG.scan,
    CFG,
    REPORT.curve,
    REPORT,
]
examples = pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)


def values(record):
    return [getattr(record, name) for name in record._fields]


def test_every_exported_record_has_an_example():
    exported = {obj for obj in vars(cslbounds).values() if isinstance(obj, type) and issubclass(obj, Record)}
    assert exported == {type(r) for r in EXAMPLES}


@examples
def test_equal_fields_give_equal_records_and_hashes(record):
    cls, args = type(record), values(record)
    for copy in (cls(*args), cls(**dict(zip(record._fields, args))), record.replace()):
        assert copy is not record
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)


@examples
def test_other_types_and_tuples_are_unequal(record):
    assert record != tuple(values(record))
    assert record != values(record)


# test-local records that hold the same values under distinct types
class Rate(Record):
    per_second: float


class Density(Record):
    per_second: float


class Strength(Record):
    per_second: float = positive()


class Bound(Record):
    value: float
    rounded_up: float


class Window(Record):
    half_width: float
    g_upper: float


class Count(Record):
    expected: float = non_negative()
    coefficient: float = positive()


class Spectrum(Record):
    k_per_fm: float = non_negative()
    density_fm3: float = non_negative()


def test_same_values_in_another_record_type_are_unequal():
    for group in (
        (Rate(2.0), Density(2.0), Strength(2.0)),
        (Bound(1.0, 2.0), Window(1.0, 2.0), Count(1.0, 2.0), Spectrum(1.0, 2.0)),
    ):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert a != b and b != a
    assert AsymmetricValue(1.0) != AsymmetricValue(2.0)
    assert AsymmetricValue(1.0) == AsymmetricValue(1.0, 0.0, 0.0)


@examples
def test_records_are_frozen(record):
    first = record._fields[0]
    before = getattr(record, first)
    with pytest.raises(AttributeError, match=first):
        setattr(record, first, None)
    with pytest.raises(AttributeError, match=first):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert getattr(record, first) is before and not hasattr(record, "not_a_field")


def test_repr_is_the_dataclass_format():
    assert repr(AsymmetricValue(1.0)) == "AsymmetricValue(central=1.0, err_up=0.0, err_down=0.0)"
    assert repr(ScanSpec()) == "ScanSpec(lo=1e-10, hi=2.5, points=201, log_spacing=True)"
    assert repr(BoundStateModel()) == (
        "BoundStateModel(kind=<ModelKind.ZERO_RANGE: 'zero-range'>, binding_energy_mev=2.224575, beta_over_kappa=6.163)"
    )
    assert repr(grw_defaults()) == "CollapseParams(lambda_rate=1e-16, a_length=1e-05, g_e=None, g_n=None)"


def test_replace_runs_the_checks_again():
    spec = ScanSpec()
    with pytest.raises(ValueError, match="scan range"):
        spec.replace(lo=3.0)
    assert spec.replace(points=11) == ScanSpec(points=11)
    assert spec == ScanSpec()


@examples
def test_bad_arguments_are_type_errors(record):
    # a wrong call is a program bug, never a ValueError that cli.main would report as error[config]
    cls, args, first = type(record), values(record), record._fields[0]
    with pytest.raises(TypeError, match="positional"):
        cls(*args, args[0])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1.0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError, match="bogus"):
        record.replace(bogus=1.0)


def test_missing_arguments_are_type_errors():
    with pytest.raises(TypeError, match="missing required argument.*'central'"):
        AsymmetricValue()
    with pytest.raises(TypeError, match="'a_length'"):
        CollapseParams(1e-16)
    with pytest.raises(TypeError, match="'expected', 'coefficient'"):
        Count()


def test_absent_arguments_take_the_class_defaults():
    assert CollapseParams(1e-16, 1e-5) == grw_defaults()
    without_warnings = {name: getattr(REPORT, name) for name in REPORT._fields if name != "warnings"}
    assert type(REPORT)(**without_warnings).warnings == ()


def test_declared_domains_are_checked_before_post_init():
    class Probe(Record):
        count: int = at_least_two(2)
        weight: float | None = non_negative(None)
        scale: float = positive()

        def __post_init__(self):
            raise AssertionError("runs only once every declared domain holds")

    assert Probe._fields == ("count", "weight", "scale")
    assert Probe._defaults == {"count": 2, "weight": None}
    for kwargs, message in [
        ({"scale": "x"}, "scale: expected a number (got 'x')"),
        ({"scale": None}, "scale: expected a number (got None)"),
        ({"scale": 1.0, "count": 2.0}, "count: expected an integer (got 2.0)"),
        ({"scale": 1.0, "count": 1}, "count: must be at least 2 (got 1)"),
        ({"scale": 1.0, "weight": -1.0}, "weight: must be non-negative (got -1.0)"),
    ]:
        with pytest.raises(ConstraintError, match=re.escape(message)):
            Probe(**kwargs)
    with pytest.raises(AssertionError, match="runs only once"):
        Probe(scale=1.0)   # weight is None, admitted because its default is None


def test_a_field_holds_its_value_as_read():
    # an int or a numpy scalar given a float field is the float it equals; what operator.index takes is an int
    spec = ScanSpec(lo=1, hi=np.float32(2.5), points=np.int64(5))
    assert spec == ScanSpec(1.0, 2.5, 5) and [type(v) for v in values(spec)] == [float, float, int, bool]
    with pytest.raises(ConstraintError, match=re.escape("lo: expected a number within the float range (got 1000")):
        ScanSpec(lo=10**400)
    # a numpy bool is refused as a Python bool is, though float() takes it
    for value in (True, np.True_):
        with pytest.raises(ConstraintError, match=re.escape(f"lo: expected a number (got {value!r})")):
            ScanSpec(lo=value)


def test_exclusion_curves_compare_by_their_fields():
    # the grid derived from the spec is never compared, hashed or printed
    curve = REPORT.curve
    twin = ExclusionCurve(ScanSpec(points=3), *values(curve)[1:])
    assert twin is not curve and twin.scan is not curve.scan
    assert twin == curve and hash(twin) == hash(curve)
    assert len({curve, twin}) == 1
    assert twin.lambda_over_a2 == curve.lambda_over_a2
    assert curve.replace(scan=ScanSpec(points=4)) != curve
    assert "lambda_over_a2" not in repr(curve)
