"""Tests of the benchmark itself: seeded inputs, the closed-form output checks
(a perturbed output must be counted as a failed op), the tracer, and the
agreement between BENCHMARK.json and what bench/run.py reports.

Run with the package's src directory on PYTHONPATH:
    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import inputs
import oracle
import run
from tracer import Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """A small pool per workload; scan_spectrum gets 201-point scans to stay fast."""
    out = {}
    for name in run.WORKLOADS:
        source = "cold_cli" if name == "scan_spectrum" else name
        out[name] = inputs.prepare(source, 7, str(tmp_path_factory.mktemp(name)))[:3]
    return out


def test_inputs_repeat_for_a_seed_and_stay_in_the_ordinary_region(tmp_path):
    first, again, other = (inputs.prepare("cold_cli", seed, str(tmp_path)) for seed in (11, 11, 12))
    assert [c for c, _ in first] == [c for c, _ in again]
    assert [c for c, _ in first] != [c for c, _ in other]
    for cfg, path in inputs.prepare("cold_cli", 11, str(tmp_path)):
        assert json.loads(Path(path).read_text()) == cfg
        for kind in inputs.KINDS:
            exp = oracle.analysis(cfg, kind)
            assert exp["n_csl"][0] > 0 and exp["n_limit"] > 0
            assert exp["theoretical_floor"] < exp["experimental_ceiling"]
            assert all(math.isfinite(v) for v in exp.values() if isinstance(v, float))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_outputs_pass_the_checks(name, pools):
    """In process, so that cold_cli's six format x model combinations run quickly."""
    phase = run.Phase()
    for i in range(6):
        run.run_op(run.WORKLOADS[name], i, pools[name], run.run_in_process, phase)
    assert (phase.attempted, phase.failed) == (6, 0)


def _scale_number(pattern: str, factor: float):
    """Perturb the first number that follows `pattern` (if any) by a relative factor."""

    def perturb(text: str) -> str:
        m = re.search(pattern + r"([-+0-9.eE]+)", text)
        if m is None:
            return text
        return text[: m.start(1)] + repr(float(m.group(1)) * factor) + text[m.end(1):]

    return perturb


# (workload, op, subcommand, perturbation of that subcommand's output in that op):
# one per output kind, each just above the tolerance it meets. cold_cli ops 0, 1, 2
# are analyze in text, csv and structured; scan_spectrum ops scan in csv and in
# structured, and op 0 adds spectra as density csv, op 1 as rate structured.
PERTURBATIONS = [
    ("cold_cli", 0, "analyze", _scale_number(r"<r\^2> = ", 1 + 1e-5)),
    ("cold_cli", 0, "analyze", lambda text: text.replace("warnings\n  none\n", "warnings\n  model spread\n", 1)
        if "  none" in text else text.replace("\nwarnings\n", "\nwarnings\n  none\n")),
    ("cold_cli", 1, "analyze", _scale_number(r"\nn_limit,", 1 + 1e-7)),
    ("cold_cli", 2, "analyze", _scale_number(r'"gn_bound": ', 1 + 1e-7)),               # a curve point
    ("cold_cli", 2, "analyze", _scale_number(r'"predicted_csl_counts": ', 1 + 1e-7)),
    ("scan_spectrum", 0, "scan", _scale_number(r"\n[0-9.e+-]+,[0-9.e+-]+,", 1 + 1e-7)),  # a ge_bound
    ("scan_spectrum", 0, "scan", _scale_number(r'"theoretical_floor": ', 1 + 1e-7)),     # structured, second call
    ("scan_spectrum", 0, "spectrum", _scale_number(r"\n[0-9.e+-]+,", 1 + 1e-6)),
    ("scan_spectrum", 1, "spectrum", _scale_number(r"\[\n +[0-9.e+-]+,\n +", 1 + 1e-6)),
]


@pytest.mark.parametrize("name,op,command,perturb", PERTURBATIONS)
def test_a_perturbed_output_is_counted_as_failed(name, op, command, perturb, pools):
    """Only the op whose output is perturbed fails, and the run goes on."""
    w = run.WORKLOADS[name]
    perturbed = []

    def execute(argv):
        code, out, err = run.run_in_process(argv)
        changed = perturb(out) if argv in targets else out
        if changed != out:
            perturbed.append(argv)
        return code, changed, err

    phase = run.Phase()
    for i in range(op, op + 2):
        targets = [argv for argv, _ in w.calls(op, pools[name]) if argv[0] == command] if i == op else []
        run.run_op(w, i, pools[name], execute, phase)
    assert perturbed
    assert (phase.attempted, phase.failed) == (2, 1)


def test_a_nonzero_exit_is_counted_as_failed(pools):
    phase = run.Phase()
    run.run_op(run.WORKLOADS["cold_cli"], 0, pools["cold_cli"], lambda argv: (1, "", "boom"), phase)
    assert (phase.attempted, phase.failed) == (1, 1)


def test_tracer_counts_calls_through_every_binding_and_repeats(pools):
    import cslbounds.limits
    import cslbounds.rates

    original = cslbounds.limits.mean_square_radius
    w = run.WORKLOADS["cold_cli"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.run_op(w, 0, pools["cold_cli"], run.run_in_process, run.Phase())
        finally:
            tracer.uninstall()
        counts.append({n: (s["calls"], s["evals"]) for n, s in tracer.snapshot().items()})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"][0] == 1
    # run_full_analysis calls it directly and twice through rates.count_coefficient;
    # --predict adds one more through rates.expected_count
    assert counts[0]["deuteron.mean_square_radius"][0] == 4
    assert counts[0]["quadrature.integrate_radial"][1] > 0
    assert cslbounds.limits.mean_square_radius is original
    assert cslbounds.rates.mean_square_radius is original


def test_missing_traced_names_report_zero():
    metrics = run.per_layer({}, 1, {}, 1, 0, [_fake_import()], 1.0)
    assert metrics["quadrature.integrate_fourier.calls"]["value"] == 0


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run._tail(samples, 99.0) == (90.0, 90.0)
    assert run._tail(samples, 75.0) == (75.0, 75.0)
    assert run._tail(samples[:40], 70.0) == (70.0, 28.0)
    assert run._tail(samples[:35], 70.0) == (70.0, 25.0)   # exactly 10 beyond
    assert run._tail(samples[:33], 70.0) == (100.0 * 23 / 33, 23.0)   # 10 beyond, just below p70
    assert run._tail(samples[:11], 50.0) == (100.0 / 11, 1.0)
    assert run._tail(samples[:5], 50.0) == (100.0, 5.0)


def _fake_import() -> dict:
    return {"t_spawn": 0.0, "t_start": 0.05, "t_imported": 0.8, "t_ready": 0.9, "modules_loaded": 700, "scipy_loaded": 1}


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    phase = run.Phase(op_s=[0.01] * 20)
    e2e = run.end_to_end(run.WORKLOADS["scan_spectrum"], phase, [_fake_import()], 1024, [])
    layer = run.per_layer({}, 1, {}, 1, 0, [_fake_import()], 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, m["unit"]) for n, m in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, m["unit"]) for n, m in layer.items()]
