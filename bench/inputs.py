"""Seeded generator of the JSON configs the benchmark feeds to the package.

Every value is drawn from a continuous range chosen so that each config
lies inside the region where the analysis is an ordinary result: counts
above the background prediction (so the net count and the one-sided limit
are positive), a visibility floor far below the radiation ceiling, and
finite values throughout. Inputs outside that region are candidates for
reclassification (physics outcome vs. error) and would make a workload's
outcome depend on that policy rather than on speed.
"""

from __future__ import annotations

import json
import os
import random

KINDS = ("zero-range", "hulthen")
FORMATS = ("text", "csv", "structured")

# lambda/a^2 grid of a scan_spectrum op, and the default grid used elsewhere
DENSE_SCAN_POINTS = 15_000
DEFAULT_SCAN_POINTS = 201


def draw_config(rng: random.Random, scan_points: int) -> dict:
    """One full config document; every key is set so no package default leaks in."""
    u = rng.uniform
    efficiency = u(0.3, 0.6)
    live_days = u(200.0, 400.0)
    ssm_rate = u(10.0, 16.0)
    # observed efficiency-corrected total exceeds the background by 1-10 %
    value = efficiency * ssm_rate * live_days * (1.0 + u(0.01, 0.10))
    return {
        "collapse": {
            "lambda_per_sec": u(1e-17, 1e-15),
            "a_cm": u(5e-6, 2e-5),
            "g_n": u(1.1, 3.0),
            "g_e": None,
        },
        "experiment": {
            "live_time_days": live_days,
            "fiducial_radius_m": u(4.0, 7.0),
            "deuteron_density_per_cc": u(5e22, 8e22),
            "efficiency": efficiency,
            "observed": {
                "value": value,
                "stat_up": value**0.5 * u(0.9, 1.2),
                "stat_down": value**0.5 * u(0.9, 1.2),
                "syst_up": value * u(0.01, 0.03),
                "syst_down": value * u(0.01, 0.03),
            },
            "ssm_rate_per_day": {
                "value": ssm_rate,
                "up": ssm_rate * u(0.15, 0.25),
                "down": ssm_rate * u(0.12, 0.20),
            },
        },
        "sphere": {
            "diameter_cm": u(2e-5, 8e-5),
            "nucleon_count": u(5e9, 5e10),
            "perception_time_s": u(0.5, 2.0),
            "margin": u(0.05, 0.2),
        },
        "scan": {
            "min": u(1e-11, 1e-9),
            "max": u(1.0, 2.5),
            "points": scan_points,
            "log_spacing": True,
        },
        "model": {
            "kind": rng.choice(KINDS),
            "binding_energy_mev": u(1.5, 3.0),
            "beta_over_kappa": u(3.0, 10.0),
        },
        "n_sigma": u(0.5, 3.0),
    }


# Configs per workload; ops rotate through the pool, and a run covers each
# config about twice or more (a scan_spectrum op pair shares one config). A
# spectrum costs up to 1.4x more on one model than on another, so the median
# op time should not hinge on the few models one seed happens to draw.
POOL_SIZES = {"cold_cli": 12, "scan_spectrum": 16}


def prepare(workload: str, seed: int, directory: str) -> list[tuple[dict, str]]:
    """Draw the workload's config pool from its seed and write each config
    under directory; returns (config, path) pairs."""
    points = DENSE_SCAN_POINTS if workload == "scan_spectrum" else DEFAULT_SCAN_POINTS
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    for i in range(POOL_SIZES[workload]):
        cfg = draw_config(rng, points)
        path = os.path.join(directory, f"cfg_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        pool.append((cfg, path))
    return pool
