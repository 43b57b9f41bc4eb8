import math

import numpy as np
import pytest

from cslbounds import (
    GRW_LAMBDA_OVER_A2,
    CollapseParams,
    grw_defaults,
    lambda_over_a2,
)
from cslbounds.constants import (
    DAYS_PER_YEAR,
    HBAR_C_MEV_FM,
    M_E_OVER_M_P,
    M_N_OVER_M_P,
    REDUCED_MASS_NP_MEV,
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
)


def test_grw_defaults_values():
    p = grw_defaults()
    assert p.lambda_rate == 1e-16
    assert p.a_length == 1e-5
    assert p.g_e is None and p.g_n is None


def test_grw_defaults_deterministic():
    assert grw_defaults() == grw_defaults()


def test_grw_lambda_over_a2():
    assert lambda_over_a2(grw_defaults()) == pytest.approx(1e-6, rel=1e-12, abs=0)
    assert GRW_LAMBDA_OVER_A2 == 1e-6


def test_lambda_over_a2_scaling_identity():
    p = CollapseParams(lambda_rate=4e-16, a_length=2e-5)
    assert lambda_over_a2(p) == pytest.approx(1e-6, rel=1e-12, abs=0)


def test_lambda_over_a2_direct_division():
    # matches the radiation-limit strength 2.5 by direct division
    p = CollapseParams(lambda_rate=2.5e-10, a_length=1e-5)
    assert lambda_over_a2(p) == pytest.approx(2.5, rel=1e-12)


def test_lambda_over_a2_invariant_under_joint_rescaling():
    base = lambda_over_a2(grw_defaults())
    # powers of two rescale exactly
    for c in (2.0, 0.5, 8.0):
        p = CollapseParams(lambda_rate=c * c * 1e-16, a_length=c * 1e-5)
        assert lambda_over_a2(p) == base
    rng = np.random.default_rng(7)
    for c in rng.uniform(0.1, 50.0, size=20):
        p = CollapseParams(lambda_rate=c * c * 1e-16, a_length=c * 1e-5)
        assert lambda_over_a2(p) == pytest.approx(base, rel=1e-14, abs=0)


def test_mass_ratio_invariants():
    assert M_N_OVER_M_P > 1
    assert M_N_OVER_M_P - 1 == pytest.approx(1.4e-3, rel=0.05)
    assert M_E_OVER_M_P == pytest.approx(1 / 1836.15, rel=1e-3)
    assert SECONDS_PER_YEAR == 365 * SECONDS_PER_DAY and DAYS_PER_YEAR == 365.0


def test_constants_keep_their_reference_bits():
    # every figure and golden output rests on these exact floats
    held = [M_E_OVER_M_P, M_N_OVER_M_P, HBAR_C_MEV_FM, REDUCED_MASS_NP_MEV, SECONDS_PER_DAY, SECONDS_PER_YEAR]
    assert list(map(repr, held)) == [
        "0.0005446170225049968", "1.00137842", "197.327", "469.459", "86400.0", "31536000.0"
    ]


@pytest.mark.parametrize("kwargs", [
    {"lambda_rate": 0.0, "a_length": 1e-5},
    {"lambda_rate": -1e-16, "a_length": 1e-5},
    {"lambda_rate": 1e-16, "a_length": 0.0},
    {"lambda_rate": math.nan, "a_length": 1e-5},
    {"lambda_rate": 1e-16, "a_length": 1e-5, "g_n": -0.1},
])
def test_collapse_params_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        CollapseParams(**kwargs)
