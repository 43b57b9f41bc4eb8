import math

import pytest

from cslbounds import QuadratureError, QuadratureSpec, integrate_radial


def test_exponential_integral():
    value, err = integrate_radial(lambda r: math.exp(-r), 0.0)
    assert value == pytest.approx(1.0, rel=1e-10)
    assert err <= 1e-9


def test_polynomial_exponential_integral():
    value, _ = integrate_radial(lambda r: r * r * math.exp(-2 * r), 0.0)
    assert value == pytest.approx(0.25, rel=1e-10)


def test_finite_interval():
    value, _ = integrate_radial(math.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, rel=1e-10)


def test_error_estimate_meets_tolerance():
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=0.0)
    value, err = integrate_radial(lambda r: math.exp(-r * r), 0.0, spec=spec)
    assert value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-6)
    assert err <= max(spec.rel_tol * abs(value), spec.abs_tol) * 10


def test_non_finite_sample_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_radial(lambda r: math.nan, 0.0, 1.0)


def test_subdivision_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=2)
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_radial(lambda x: math.cos(500.0 * x), 0.0, 1.0, spec)


def test_invalid_domain_rejected():
    with pytest.raises(ValueError):
        integrate_radial(math.exp, math.inf, math.inf)
    with pytest.raises(ValueError):
        integrate_radial(math.exp, 1.0, 0.0)


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0},
    {"rel_tol": -1e-9},
    {"abs_tol": -1.0},
    {"max_subdivisions": 0},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)

