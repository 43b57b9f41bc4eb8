"""Collapse-model bound-state excitation rates and coupling exclusion bounds.

The package computes first-order collapse-induced dissociation rates for
the deuteron, propagates asymmetric counting uncertainties for a
heavy-water exposure, and inverts count limits into coupling-constant
exclusion curves over the lambda/a^2 parameter space.
"""

from .config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    default_config,
    load_config,
    parse_config,
)
from .constants import (
    GRW_A_LENGTH,
    GRW_LAMBDA_OVER_A2,
    GRW_LAMBDA_RATE,
    CollapseParams,
    grw_defaults,
    lambda_over_a2,
)
from .deuteron import (
    BoundStateModel,
    ModelKind,
    default_k_grid,
    dipole_radial_integral,
    mean_square_radius,
    spectrum_densities,
)
from .limits import (
    GE_HALF_WIDTH_AT_GRW,
    RADIATION_CEILING,
    AnalysisReport,
    ExclusionCurve,
    ExperimentConfig,
    ObservedCounts,
    ScanSpec,
    SphereVisibilityConfig,
    net_csl_counts,
    neutron_coupling_bound,
    round_up_one_significant,
    run_full_analysis,
    scan_exclusion,
    small_a_floor_coefficient,
    theoretical_floor,
    visibility_floor_large_a,
    visibility_floor_small_a,
)
from .quadrature import QuadratureError, integrate_radial
from .rates import (
    count_coefficient,
    deuteron_rate,
    deuteron_spectra,
    expected_count,
)
from .records import ConstraintError
from .uncertainty import (
    AsymmetricValue,
    add,
    combine_quadrature,
    one_sided_upper_limit,
    scale,
    subtract,
)

__version__ = "0.1.0"
