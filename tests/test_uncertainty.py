import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslbounds import (
    AsymmetricValue,
    add,
    combine_quadrature,
    one_sided_upper_limit,
    scale,
    subtract,
)

centrals = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
errors = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def asym(central=0.0):
    return st.builds(AsymmetricValue, st.just(central), errors, errors)


def test_combine_reference_measurement():
    # stat (+69.8/-69.0) merged with syst (+98.1/-96.8)
    stat = AsymmetricValue(1344.2, 69.8, 69.0)
    syst = AsymmetricValue(1344.2, 98.1, 96.8)
    merged = combine_quadrature(stat, syst)
    assert merged.central == 1344.2
    assert merged.err_up == pytest.approx(120.4, abs=0.05)
    assert merged.err_down == pytest.approx(118.9, abs=0.05)
    # quoted display rounding is +120/-119
    assert merged.err_up == pytest.approx(120, abs=0.5)
    assert merged.err_down == pytest.approx(119, abs=0.5)


def test_combine_requires_shared_central():
    with pytest.raises(ValueError):
        combine_quadrature(AsymmetricValue(1.0, 1, 1), AsymmetricValue(2.0, 1, 1))


@given(asym(1344.2))
def test_combine_identity(v):
    zero = AsymmetricValue(v.central, 0.0, 0.0)
    assert combine_quadrature(v, zero) == v


@given(asym(10.0), asym(10.0))
def test_combine_commutative(a, b):
    assert combine_quadrature(a, b) == combine_quadrature(b, a)


@given(asym(10.0), asym(10.0), asym(10.0))
def test_combine_associative(a, b, c):
    left = combine_quadrature(combine_quadrature(a, b), c)
    right = combine_quadrature(a, combine_quadrature(b, c))
    assert left.err_up == pytest.approx(right.err_up, rel=1e-12, abs=1e-300)
    assert left.err_down == pytest.approx(right.err_down, rel=1e-12, abs=1e-300)


def test_scale_efficiency_correction():
    merged = AsymmetricValue(1344.2, 120.39788204117212, 118.87489221866828)
    corrected = scale(merged, 1.0 / 0.40)
    assert corrected.central == pytest.approx(3360.5, abs=0.05)
    assert corrected.err_up == pytest.approx(301.0, abs=0.05)
    assert corrected.err_down == pytest.approx(297.2, abs=0.05)
    # within two counts of the quoted 3361 +300/-298
    assert corrected.central == pytest.approx(3361, abs=2)
    assert corrected.err_up == pytest.approx(300, abs=2)
    assert corrected.err_down == pytest.approx(298, abs=2)


def test_scale_identity_and_inverse():
    v = AsymmetricValue(55.9, 608.4, 724.7)
    assert scale(v, 1.0) == v
    assert scale(scale(v, 2.0), 0.5) == v


def test_scale_rejects_non_positive():
    v = AsymmetricValue(1.0, 1.0, 1.0)
    for factor in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            scale(v, factor)


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6), asym(3.5))
def test_scale_multiplicative(a, b, v):
    combined = scale(v, a * b)
    chained = scale(scale(v, a), b)
    assert combined.central == pytest.approx(chained.central, rel=1e-12, abs=1e-300)
    assert combined.err_up == pytest.approx(chained.err_up, rel=1e-12, abs=1e-300)
    assert combined.err_down == pytest.approx(chained.err_down, rel=1e-12, abs=1e-300)


def test_subtract_background():
    # efficiency-corrected total minus quoted background prediction
    n_expt = AsymmetricValue(3361, 300, 298)
    n_ssm = AsymmetricValue(3305, 661, 529)
    excess = subtract(n_expt, n_ssm)
    assert excess.central == 56
    assert excess.err_up == pytest.approx(608, abs=0.5)
    assert excess.err_down == pytest.approx(725, abs=0.5)


@given(asym(42.0))
def test_subtract_self(v):
    d = subtract(v, v)
    assert d.central == 0.0
    assert d.err_up == pytest.approx(math.hypot(v.err_up, v.err_down), rel=1e-12, abs=1e-300)
    assert d.err_up == d.err_down


@given(asym(3.0), asym(-7.5))
def test_subtract_antisymmetry(a, b):
    d1, d2 = subtract(a, b), subtract(b, a)
    assert d1.central == -d2.central
    assert d1.err_up == d2.err_down
    assert d1.err_down == d2.err_up


@given(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=-10**9, max_value=10**9),
    errors,
    errors,
    errors,
    errors,
)
def test_subtract_then_add_back(ca, cb, au, ad, bu, bd):
    # centrals restricted to integers so the float sums are exact
    a = AsymmetricValue(float(ca), au, ad)
    b = AsymmetricValue(float(cb), bu, bd)
    assert subtract(add(a, b), b).central == a.central


def test_one_sided_upper_limit_reference():
    excess = AsymmetricValue(56.0, 608.0, 725.0)
    assert one_sided_upper_limit(excess, 1.0) == pytest.approx(664, abs=0.5)
    assert one_sided_upper_limit(AsymmetricValue(0, 1, 1), 2.0) == 2.0


@given(asym(-5.0), st.floats(min_value=0, max_value=100))
def test_one_sided_upper_limit_bounds_central(v, n):
    assert one_sided_upper_limit(v, n) >= v.central


@given(asym(1.0), st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50))
def test_one_sided_upper_limit_monotone(v, n1, n2):
    lo, hi = sorted((n1, n2))
    assert one_sided_upper_limit(v, lo) <= one_sided_upper_limit(v, hi)


def test_one_sided_upper_limit_rejects_negative_sigma():
    with pytest.raises(ValueError):
        one_sided_upper_limit(AsymmetricValue(1, 1, 1), -1.0)


# A rate per day becomes a count by scaling it by the live time in days.
def test_from_rate_per_day_reference():
    rate = AsymmetricValue(13.0, 2.6, 2.08)
    total = scale(rate, 254.2)
    assert total.central == pytest.approx(3304.6, abs=0.05)
    assert total.err_up == pytest.approx(660.9, abs=0.05)
    assert total.err_down == pytest.approx(528.7, abs=0.05)
    # quoted rounding: 3305 +661/-529
    assert total.central == pytest.approx(3305, abs=1)
    assert total.err_up == pytest.approx(661, abs=1)
    assert total.err_down == pytest.approx(529, abs=1)


def test_from_rate_per_day_identity_and_validation():
    rate = AsymmetricValue(13.0, 2.6, 2.08)
    assert scale(rate, 1.0) == rate
    with pytest.raises(ValueError):
        scale(rate, 0.0)
    with pytest.raises(ValueError):
        scale(rate, -3.0)


def test_asymmetric_value_validation():
    with pytest.raises(ValueError):
        AsymmetricValue(math.inf, 1, 1)
    with pytest.raises(ValueError):
        AsymmetricValue(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        AsymmetricValue(0.0, 0.0, math.nan)


def test_display_format():
    v = AsymmetricValue(3360.5, 300.99, 297.19)
    assert v.display() == "3360.5 +301.0/-297.2"
    # fixed point would print every integer digit of a huge count
    assert AsymmetricValue(2.5e307, 999999999999999.9, 1e15).display() == "2.50000e+307 +999999999999999.9/-1.00000e+15"
    assert AsymmetricValue(-1.23456789e20, 0.0, 0.0).display() == "-1.23457e+20 +0.0/-0.0"


BIG = AsymmetricValue(1e308, 1e308, 1e308)


@pytest.mark.parametrize("op", [
    lambda: combine_quadrature(BIG, AsymmetricValue(1e308, 1.7e308, 0.0)),
    lambda: scale(BIG, 10.0),
    lambda: add(BIG, BIG),
    lambda: subtract(BIG, AsymmetricValue(-1e308)),
    lambda: scale(BIG, 2.0),
    lambda: one_sided_upper_limit(BIG, 2.0),
], ids=["combine_quadrature", "scale", "add", "subtract", "from_rate_per_day", "one_sided_upper_limit"])
def test_overflow_of_finite_operands_raises(op):
    with pytest.raises(OverflowError, match="overflowed"):
        op()
