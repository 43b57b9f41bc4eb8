"""Closed-form expected outputs, derived from the model definitions alone.

Nothing here imports the package: every expected number is recomputed from
the generated config and the physical definitions, so an output check
cannot pass merely because the package agrees with itself.

- Both bound-state models are u(r) = sum_i c_i exp(-a_i r): zero-range has
  c = [N], a = [kappa]; Hulthen has c = [N, -N], a = [kappa, beta].
- <r^2> = sum_ij c_i c_j 2/(a_i+a_j)^3 and the dipole radial integral is
  I(k) = sum_i c_i 2k/(k^2+a_i^2)^2, with density(k) = (2/pi) k^2 I^2.
- Counts use the hypot-based asymmetric-error algebra; the neutron bound
  scales as 1/sqrt(lambda/a^2) and the electron half-width is
  12 (m_e/m_p) sqrt(1e-6/(lambda/a^2)).

csv and structured outputs print every float with full precision and are
compared at relative tolerance RTOL; text output is compared to within
half a unit of its last printed digit plus RTOL. Spectrum values are the
one output the package computes point by point with adaptive quadrature
(requested relative tolerance 1e-9 on I(k)). Over 2800 random models drawn
like bench/inputs.py draws them, that quadrature missed the closed form by
up to 1.2e-8 in I(k), 2.3e-8 in the density, at isolated k points of
about 0.25% of the models, so spectrum values are compared at
SPECTRUM_RTOL instead. Some models miss by more, and ops on them count as
failed: 2 of the 640 configs of scan_spectrum seeds 1-40 (seed 17 config
10, seed 33 config 2) give densities off by 1.6e-7 and 2.4e-7 at one k
point, in both model kinds. At the second, scipy's quad returns I(k) off by
1.2e-7 with an error estimate of 1.3e-9, while mpmath at 30 digits agrees
with the closed form to 1e-17: the package's value is wrong, not the check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal

import numpy as np

RTOL = 1e-8
SPECTRUM_RTOL = 1e-7

M_E_OVER_M_P = 1.0 / 1836.15267
M_N_OVER_M_P = 1.00137842
HBAR_C_MEV_FM = 197.3270
REDUCED_MASS_NP_MEV = 469.459
SECONDS_PER_YEAR = 365.0 * 86400.0
GRW_LAMBDA_OVER_A2 = 1e-6
RADIATION_CEILING = 2.5
CM2_PER_FM2 = 1e-26
R2_REFERENCE_CM2 = 9e-26
R2_SPREAD_TOLERANCE = 0.10
K_GRID_POINTS = 200


def exponential_terms(model: dict, kind: str) -> tuple[list[float], list[float]]:
    """(c, a) of u(r) = sum c_i exp(-a_i r) in fm units."""
    kappa = math.sqrt(2.0 * REDUCED_MASS_NP_MEV * model["binding_energy_mev"]) / HBAR_C_MEV_FM
    if kind == "zero-range":
        return [math.sqrt(2.0 * kappa)], [kappa]
    beta = model["beta_over_kappa"] * kappa
    norm = math.sqrt(2.0 * kappa * beta * (kappa + beta) / (beta - kappa) ** 2)
    return [norm, -norm], [kappa, beta]


def mean_square_radius_cm2(model: dict, kind: str) -> float:
    c, a = exponential_terms(model, kind)
    fm2 = sum(ci * cj * 2.0 / (ai + aj) ** 3 for ci, ai in zip(c, a) for cj, aj in zip(c, a))
    return fm2 * CM2_PER_FM2


def k_grid(model: dict, kind: str) -> np.ndarray:
    kappa = exponential_terms(model, kind)[1][0]
    return np.logspace(math.log10(0.01 * kappa), math.log10(20.0 * kappa), K_GRID_POINTS)


def spectrum_density(model: dict, kind: str, k: np.ndarray) -> np.ndarray:
    """(2/pi) k^2 I(k)^2 in fm^3."""
    c, a = exponential_terms(model, kind)
    radial = sum(ci * 2.0 * k / (k * k + ai * ai) ** 2 for ci, ai in zip(c, a))
    return (2.0 / math.pi) * k * k * radial * radial


def coupling_weight(g_n: float) -> float:
    return ((g_n - M_N_OVER_M_P) / (1.0 + M_N_OVER_M_P)) ** 2


def rate_density(cfg: dict, kind: str, k: np.ndarray) -> np.ndarray:
    """dR/dk in 1/s per 1/fm."""
    col = cfg["collapse"]
    prefactor = 0.5 * col["lambda_per_sec"] / col["a_cm"] ** 2
    return prefactor * coupling_weight(col["g_n"]) * spectrum_density(cfg["model"], kind, k) * CM2_PER_FM2


def round_up_one_significant(x: float) -> float:
    exponent = math.floor(math.log10(x))
    return math.ceil(x / 10.0**exponent - 1e-9) * 10.0**exponent


def scan_grid(scan: dict) -> np.ndarray:
    if scan["log_spacing"]:
        return np.logspace(math.log10(scan["min"]), math.log10(scan["max"]), scan["points"])
    return np.linspace(scan["min"], scan["max"], scan["points"])


def analysis(cfg: dict, kind: str) -> dict:
    """Every number an analyze report prints, keyed by its csv quantity name."""
    e, s, col = cfg["experiment"], cfg["sphere"], cfg["collapse"]
    obs, ssm, eff, days = e["observed"], e["ssm_rate_per_day"], e["efficiency"], e["live_time_days"]
    n_expt = (
        obs["value"] / eff,
        math.hypot(obs["stat_up"], obs["syst_up"]) / eff,
        math.hypot(obs["stat_down"], obs["syst_down"]) / eff,
    )
    n_ssm = (ssm["value"] * days, ssm["up"] * days, ssm["down"] * days)
    n_csl = (
        n_expt[0] - n_ssm[0],
        math.hypot(n_expt[1], n_ssm[2]),
        math.hypot(n_expt[2], n_ssm[1]),
    )
    n_limit = n_csl[0] + cfg["n_sigma"] * n_csl[1]
    r2 = mean_square_radius_cm2(cfg["model"], kind)
    coefficient = (
        0.5 * GRW_LAMBDA_OVER_A2 / (1.0 + M_N_OVER_M_P) ** 2
        * r2 * e["deuteron_density_per_cc"] * 1e9 * SECONDS_PER_YEAR
    )
    exposure = days / 365.0 * (4.0 * math.pi / 3.0) * e["fiducial_radius_m"] ** 3 / 1e3
    gn = math.sqrt(n_limit / (coefficient * exposure))
    ge = 12.0 * M_E_OVER_M_P
    budget = s["margin"] * s["perception_time_s"]
    large_a = 4.0 / (s["nucleon_count"] ** 2 * s["diameter_cm"] ** 2 * budget)
    small_a = (math.pi / 6.0 * s["diameter_cm"] ** 3) / (
        s["nucleon_count"] ** 2 * (4.0 * math.pi) ** 1.5 * budget * col["a_cm"] ** 5
    )
    ld_ratio = col["lambda_per_sec"] / col["a_cm"] ** 2 / GRW_LAMBDA_OVER_A2
    return {
        "n_expt": n_expt,
        "n_ssm": n_ssm,
        "n_csl": n_csl,
        "n_limit": n_limit,
        "gn_bound_at_grw": gn,
        "gn_bound_rounded": round_up_one_significant(gn),
        "ge_half_width_at_grw": ge,
        "ge_upper_at_grw": M_E_OVER_M_P + ge,
        "strength_ratio": (ge / M_E_OVER_M_P) / (gn / M_N_OVER_M_P),
        "model_r2_cm2": r2,
        "theoretical_floor": max(large_a, small_a),
        "experimental_ceiling": RADIATION_CEILING,
        "predicted_csl_counts": coefficient * ld_ratio * (col["g_n"] - M_N_OVER_M_P) ** 2 * exposure,
        "regime": "small-a" if small_a > large_a else "large-a",
        "warnings": int(abs(r2 - R2_REFERENCE_CM2) / R2_REFERENCE_CM2 > R2_SPREAD_TOLERANCE),
    }


class Check:
    """Collects the disagreements found in one output."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.problems.append(what)

    def number(self, what: str, got, expected: float) -> None:
        """got is a float (full precision) or a printed string (its last digit sets the slack)."""
        slack = 0.0
        if isinstance(got, str):
            slack = 0.5 * 10.0 ** Decimal(got).as_tuple().exponent
            got = float(got)
        if not abs(got - expected) <= slack + RTOL * abs(expected):
            self.fail(f"{what}: got {got!r}, expected {expected!r}")

    def array(self, what: str, got: np.ndarray, expected: np.ndarray, rtol: float = RTOL) -> None:
        if got.shape != expected.shape:
            self.fail(f"{what}: got {got.shape[0]} values, expected {expected.shape[0]}")
            return
        bad = np.flatnonzero(~(np.abs(got - expected) <= rtol * np.abs(expected)))
        if bad.size:
            i = int(bad[0])
            self.fail(f"{what}[{i}]: got {got[i]!r}, expected {expected[i]!r} ({bad.size} bad)")


def _curve(c: Check, exp: dict, scan: dict, ld: np.ndarray, gn: np.ndarray, ge: np.ndarray) -> None:
    """The neutron bound times sqrt(lambda/a^2) is one constant; ge follows its closed form."""
    grid = scan_grid(scan)
    c.array("curve.lambda_over_a2", ld, grid)
    if ld.shape != grid.shape:
        return
    c.array("curve.gn_bound*sqrt(ld)", gn * np.sqrt(ld), np.full(ld.shape, exp["gn_bound_at_grw"] * 1e-3))
    c.array("curve.ge_bound", ge, 12.0 * M_E_OVER_M_P * np.sqrt(GRW_LAMBDA_OVER_A2 / grid))


def _points(points: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.array([p[key] for p in points], dtype=float) for key in ("lambda_over_a2", "gn_bound", "ge_bound"))


_BOUNDS = ("gn_bound_at_grw", "gn_bound_rounded", "ge_half_width_at_grw", "ge_upper_at_grw", "strength_ratio")
_SCALARS = ("n_limit", *_BOUNDS, "model_r2_cm2", "theoretical_floor", "experimental_ceiling")


def check_analyze(cfg: dict, kind: str, fmt: str, output: str) -> list[str]:
    """Problems found in the output of `analyze --predict --format fmt --model kind`."""
    exp = analysis(cfg, kind)
    c = Check()
    try:
        if fmt == "structured":
            _analyze_structured(c, exp, cfg, json.loads(output))
        elif fmt == "csv":
            _analyze_csv(c, exp, output)
        else:
            _analyze_text(c, exp, cfg, output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        c.fail(f"unparseable {fmt} output: {exc!r}")
    return c.problems


def _analyze_structured(c: Check, exp: dict, cfg: dict, data: dict) -> None:
    counts, bounds = data["counts"], data["bounds"]
    for name in ("n_expt", "n_ssm", "n_csl"):
        for key, value in zip(("central", "err_up", "err_down"), exp[name]):
            c.number(f"{name}.{key}", counts[name][key], value)
    c.number("n_limit", counts["n_limit"], exp["n_limit"])
    c.number("n_sigma", counts["n_sigma"], cfg["n_sigma"])
    for name in _BOUNDS:
        c.number(name, bounds[name], exp[name])
    c.number("model_r2_cm2", data["model"]["r2_cm2"], exp["model_r2_cm2"])
    curve = data["curve"]
    c.number("theoretical_floor", curve["theoretical_floor"], exp["theoretical_floor"])
    c.number("experimental_ceiling", curve["experimental_ceiling"], exp["experimental_ceiling"])
    _curve(c, exp, cfg["scan"], *_points(curve["points"]))
    c.number("predicted_csl_counts", data["predicted_csl_counts"], exp["predicted_csl_counts"])
    if not data["floor_regime"].startswith(exp["regime"]):
        c.fail(f"floor_regime: got {data['floor_regime']!r}, expected {exp['regime']} dominance")
    if len(data["warnings"]) != exp["warnings"]:
        c.fail(f"warnings: got {len(data['warnings'])}, expected {exp['warnings']}")


def _analyze_csv(c: Check, exp: dict, output: str) -> None:
    rows = list(csv.reader(io.StringIO(output)))
    if rows[0] != ["quantity", "central", "err_up", "err_down"]:
        c.fail(f"csv header: got {rows[0]!r}")
    table = {row[0]: row[1:] for row in rows[1:]}
    expected_names = ["n_expt", "n_ssm", "n_csl", *_SCALARS, "predicted_csl_counts"]
    if [row[0] for row in rows[1:]] != expected_names:
        c.fail(f"csv quantities: got {[row[0] for row in rows[1:]]!r}")
    for name in ("n_expt", "n_ssm", "n_csl"):
        for key, got, value in zip(("central", "err_up", "err_down"), table[name], exp[name]):
            c.number(f"{name}.{key}", float(got), value)
    for name in (*_SCALARS, "predicted_csl_counts"):
        c.number(name, float(table[name][0]), exp[name])


_NUM = r"([-+0-9.eE]+|inf)"
_TEXT_LINES = (
    # (pattern, names of the groups in order); every group is a printed number
    (rf"  n_expt  = {_NUM} \+{_NUM}/-{_NUM}   \(exact {_NUM}\)", ("n_expt.0", "n_expt.1", "n_expt.2", "n_expt.0")),
    (rf"  n_ssm   = {_NUM} \+{_NUM}/-{_NUM}   \(exact {_NUM}\)", ("n_ssm.0", "n_ssm.1", "n_ssm.2", "n_ssm.0")),
    (rf"  n_csl   = {_NUM} \+{_NUM}/-{_NUM}   \(exact {_NUM}\)", ("n_csl.0", "n_csl.1", "n_csl.2", "n_csl.0")),
    (rf"  one-sided upper limit \({_NUM} sigma\) = {_NUM}", ("n_sigma", "n_limit")),
    (rf"  <r\^2> = {_NUM} cm\^2", ("model_r2_cm2",)),
    (rf"  \|g_n - m_n/m_p\| < {_NUM}   \(rounded up: {_NUM}\)", ("gn_bound_at_grw", "gn_bound_rounded")),
    (rf"  \|g_e - m_e/m_p\| < {_NUM}   \(g_e < {_NUM}\)", ("ge_half_width_at_grw", "ge_upper_at_grw")),
    (rf"  electron/neutron fractional-width ratio = {_NUM}", ("strength_ratio",)),
    (rf"  theoretical floor    = {_NUM} 1/\(s cm\^2\)", ("theoretical_floor",)),
    (rf"  experimental ceiling = {_NUM} 1/\(s cm\^2\)", ("experimental_ceiling",)),
    (rf"predicted excess count for configured g_n = {_NUM}", ("predicted_csl_counts",)),
)


def _analyze_text(c: Check, exp: dict, cfg: dict, output: str) -> None:
    lines = output.splitlines()
    flat = dict(exp, n_sigma=cfg["n_sigma"])
    for name in ("n_expt", "n_ssm", "n_csl"):
        flat.update({f"{name}.{i}": v for i, v in enumerate(exp[name])})
    for pattern, names in _TEXT_LINES:
        matches = [m for m in map(re.compile(pattern).fullmatch, lines) if m]
        if len(matches) != 1:
            c.fail(f"text: {len(matches)} lines match {pattern!r}")
            continue
        for name, printed in zip(names, matches[0].groups()):
            c.number(name, printed, flat[name])
    if not any(line.startswith(f"  {exp['regime']} visibility constraint dominates") for line in lines):
        c.fail(f"text: no '{exp['regime']} visibility constraint dominates' line")
    warnings = lines[lines.index("warnings") + 1 :]
    got = 0 if warnings == ["  none"] else len(warnings)
    if got != exp["warnings"]:
        c.fail(f"text warnings: got {got}, expected {exp['warnings']}")


def check_scan(cfg: dict, kind: str, fmt: str, output: str) -> list[str]:
    """Problems found in the output of `scan --format fmt` (csv or structured)."""
    exp = analysis(cfg, kind)
    c = Check()
    try:
        if fmt == "structured":
            data = json.loads(output)
            floor, ceiling = data["theoretical_floor"], data["experimental_ceiling"]
            ld, gn, ge = _points(data["points"])
        else:
            comment, rest = output.split("\nlambda_over_a2,gn_bound,ge_bound\n")
            floor, ceiling = (float(line.split(" = ")[1]) for line in comment.split("\n"))
            ld, gn, ge = np.array(rest.replace("\n", ",").rstrip(",").split(","), dtype=float).reshape(-1, 3).T
        c.number("theoretical_floor", floor, exp["theoretical_floor"])
        c.number("experimental_ceiling", ceiling, exp["experimental_ceiling"])
        _curve(c, exp, cfg["scan"], ld, gn, ge)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        c.fail(f"unparseable {fmt} output: {exc!r}")
    return c.problems


def check_spectrum(cfg: dict, kind: str, quantity: str, fmt: str, output: str) -> list[str]:
    """Problems found in the output of `spectrum --quantity quantity --format fmt`."""
    column = "rate_density" if quantity == "rate" else "density_fm3"
    c = Check()
    try:
        if fmt == "structured":
            data = json.loads(output)
            header, rows = data["columns"], np.array(data["rows"], dtype=float)
        else:
            lines = output.splitlines()
            header = lines[0].split(",")
            rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        if header != ["k_per_fm", column]:
            c.fail(f"spectrum columns: got {header!r}")
        grid = k_grid(cfg["model"], kind)
        c.array("k_per_fm", rows[:, 0], grid)
        if rows.shape[0] == grid.shape[0]:
            expected = rate_density(cfg, kind, grid) if quantity == "rate" else spectrum_density(cfg["model"], kind, grid)
            c.array(column, rows[:, 1], expected, SPECTRUM_RTOL)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        c.fail(f"unparseable {fmt} output: {exc!r}")
    return c.problems
