import contextlib
import csv
import errno
import functools
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import traceback
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from test_config import physical_configs
from test_golden import CASES as GOLDEN_CASES, GOLDEN, ROOT
from test_limits import EB_DEFAULT, columns, curve_of, holds_a_grid

import cslbounds.cli as cli
from cslbounds import (
    GE_HALF_WIDTH_AT_GRW,
    GRW_LAMBDA_OVER_A2,
    BoundStateModel,
    CollapseParams,
    ModelKind,
    QuadratureError,
    ScanSpec,
    default_config,
    default_k_grid,
    deuteron_rate,
    deuteron_spectra,
    expected_count,
    grw_defaults,
    load_config,
    parse_config,
    run_full_analysis,
    scan_exclusion,
    spectrum_densities,
)
from cslbounds.constants import M_N_OVER_M_P
from cslbounds.uncertainty import AsymmetricValue


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env():
    """The environment with this package's src directory first on PYTHONPATH, for child processes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return comments, rows[0], rows[1:]


def test_analyze_text_contains_headline_bound(capsys):
    code, out, err = run_cli(capsys, "analyze")
    assert code == 0 and err == ""
    assert "0.008" in out
    assert "n_expt" in out and "n_ssm" in out and "n_csl" in out
    assert "<r^2>" in out
    assert "warnings" in out


def test_analyze_structured_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["n_limit"] == pytest.approx(664, abs=3)
    assert data["bounds"]["gn_bound_rounded"] == 0.008
    assert 1500 <= data["bounds"]["strength_ratio"] <= 1700
    assert data["curve"]["experimental_ceiling"] == 2.5
    assert len(data["curve"]["points"]) == 201


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--format", "csv")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["quantity", "central", "err_up", "err_down"]
    assert all(len(r) == 4 for r in rows)
    names = [r[0] for r in rows]
    assert "n_csl" in names and "gn_bound_at_grw" in names


def near_default_documents():
    """physical_configs nearer the defaults: s 0.5 or 2, no observed count scaled, and at most 40 scan points."""
    return physical_configs(scales=(0.5, 2.0), scaled_counts=0.0, max_points=40)


def structured_numbers(data):
    """Each number of a structured analyze report by its csv quantity name: a count's three
    fields, or one float; model keys carry the section name, and n_sigma is an input. A null,
    a number that is not finite, is an empty cell, which leaves no value to compare."""
    numbers = {}
    for section, block in data.items():
        for key, value in block.items() if isinstance(block, dict) else [(section, block)]:
            name = f"model_{key}" if section == "model" else key
            if isinstance(value, dict):
                numbers[name] = [value["central"], value["err_up"], value["err_down"]]
            elif (value is None or isinstance(value, float)) and key != "n_sigma":
                numbers[name] = [] if value is None else [value]
    return numbers


def run_in_process(*argv):
    """cli.main(argv) with stdout and stderr captured, for tests that hypothesis runs many times."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def runs_on(path, doc):
    """run_in_process with doc, written to path, as its config; each argv runs once, and its
    outputs serve every check that reads them."""
    path.write_text(json.dumps(doc))
    return functools.cache(lambda *argv: run_in_process(*argv, "--config", str(path)))


def analyze_structured(run, *argv):
    """analyze's exit code and, when it exits 0, its structured report."""
    code, out, _ = run("analyze", "--format", "structured", *argv)
    return code, json.loads(out) if code == 0 else None


def check_csv_and_structured_outputs_agree_bit_for_bit(run, analyze, doc):
    # every number a csv row prints is the repr of the float the structured output holds under its key
    for command in (analyze, ("scan",)):
        code, csv_text, err = run(*command, "--format", "csv")
        structured_code, structured, structured_err = run(*command, "--format", "structured")
        assert (code, err) == (structured_code, structured_err)
        if code != 0:
            continue
        data = json.loads(structured)
        comments, header, rows = parse_csv(csv_text)
        if command[0] == "analyze":
            assert header == ["quantity", "central", "err_up", "err_down"]
            numbers = structured_numbers(data)
            assert [row[0] for row in rows] == list(numbers)
            for name, *cells in rows:
                assert [cell for cell in cells if cell] == list(map(repr, numbers[name]))
        else:
            assert comments == [f"# {key}_per_s_cm2 = {data[key]!r}" for key in ("theoretical_floor", "experimental_ceiling")]
            assert len(rows) == len(data["points"]) == doc["scan"]["points"]
            for row, point in zip(rows, data["points"]):
                assert list(point) == header and row == list(map(repr, point.values()))


# Each line of the analyze text report that prints numbers, as a pattern with a group per number,
# and for each group the structured value it prints (a path of keys) and how the line rounds it:
# "display" is display_number (one decimal, or 6 significant digits from 1e15 up), "g6" 6 and
# "e7" 7 significant digits, "ratio" the strength ratio's format, "repr" the exact repr.
COUNT_LINE = r" = (\S+) \+(\S+)/-(\S+)   \(exact (\S+)\)"
TEXT_NUMBERS = {
    **{
        f"  {name:<7}{COUNT_LINE}": [
            *((("counts", name, field), "display") for field in ("central", "err_up", "err_down")),
            (("counts", name, "central"), "repr"),
        ]
        for name in ("n_expt", "n_ssm", "n_csl")
    },
    r"  one-sided upper limit \((\S+) sigma\) = (\S+)": [(("counts", "n_sigma"), "g6"), (("counts", "n_limit"), "display")],
    r"  <r\^2> = (\S+) cm\^2": [(("model", "r2_cm2"), "e7")],
    r"  \|g_n - m_n/m_p\| < (\S+)   \(rounded up: (\S+)\)": [
        (("bounds", "gn_bound_at_grw"), "g6"),
        (("bounds", "gn_bound_rounded"), "g6"),
    ],
    r"  \|g_e - m_e/m_p\| < (\S+)   \(g_e < (\S+)\)": [
        (("bounds", "ge_half_width_at_grw"), "g6"),
        (("bounds", "ge_upper_at_grw"), "g6"),
    ],
    r"  electron/neutron fractional-width ratio = (\S+)": [(("bounds", "strength_ratio"), "ratio")],
    r"  theoretical floor    = (\S+) 1/\(s cm\^2\)": [(("curve", "theoretical_floor"), "g6")],
    r"  experimental ceiling = (\S+) 1/\(s cm\^2\)": [(("curve", "experimental_ceiling"), "g6")],
    r"predicted excess count for configured g_n = (\S+)": [(("predicted_csl_counts",), "g6")],
}


def rounds_from(printed: str, value: float, rounding: str) -> bool:
    """Whether printed is value rounded as its line rounds it (a printed inf stands for a null)."""
    if rounding == "repr":
        return printed == repr(value)
    if value is None:
        return printed == "inf"
    if rounding == "ratio":
        rounding = "g6" if 0 < value < 0.05 else "display"
    if rounding == "display" and abs(value) < 1e15:
        return abs(float(printed) - value) <= 0.05 * (1 + 1e-9) + 1e-15 * abs(value)
    rel = {"g6": 5e-6, "e7": 5e-7, "display": 5e-6}[rounding]
    return abs(float(printed) - value) <= rel * (1 + 1e-9) * abs(value)


def text_numbers(text: str) -> tuple[dict, list[str]]:
    """The printed number of each structured path, and the lines that match no pattern."""
    printed, rest = {}, []
    for line in text.splitlines():
        matches = [(pattern, m) for pattern in TEXT_NUMBERS if (m := re.fullmatch(pattern, line))]
        assert len(matches) <= 1, line
        if not matches:
            rest.append(line)
        for pattern, m in matches:
            for (path, rounding), number in zip(TEXT_NUMBERS[pattern], m.groups()):
                assert (path, rounding) not in printed, line
                printed[path, rounding] = number
    return printed, rest


def check_text_report_prints_the_structured_values(run, analyze, doc):
    # each number the text report prints rounds, as its line rounds it, from the structured value under its key
    code, text, err = run(*analyze)
    structured_code, structured, structured_err = run(*analyze, "--format", "structured")
    assert (code, err) == (structured_code, structured_err)
    if code != 0:
        return
    data = json.loads(structured)
    if "predicted_csl_counts" in data:   # the library's count for the same config, bit for bit
        assert data["predicted_csl_counts"].hex() == expected_count(parse_config(json.dumps(doc))).hex()
    printed, rest = text_numbers(text)
    # every pattern matched once; the predicted count's only with --predict
    assert set(printed) == {number for numbers in TEXT_NUMBERS.values() for number in numbers if number[0][0] in data}
    for (path, rounding), number in printed.items():
        value = functools.reduce(dict.__getitem__, path, data)
        assert rounds_from(number, value, rounding), (path, number, value)
    assert rest == [
        "collapse-coupling constraint analysis",
        "counts (efficiency-corrected)",
        "model",
        "bounds at lambda/a^2 = 1e-6 1/(s cm^2)",
        "exclusion curve",
        f"  {data['floor_regime']}",
        "warnings",
        *(f"  {w}" for w in data["warnings"] or ["none"]),
    ]


def check_the_neutron_bound_inverts_to_the_count_limit(run, doc):
    # at GRW strength, g_n = m_n/m_p + bound predicts the count limit the bound was inverted from; rounding
    # the sum moves the squared deviation by up to 2 (m_n/m_p / bound + 1) unit roundoffs, and the tolerance
    # is twice that with 12 more for the products of the count and of the bound
    code, data = analyze_structured(run)
    if code != 0:
        return
    bound, n_limit = data["bounds"]["gn_bound_at_grw"], data["counts"]["n_limit"]
    cfg = parse_config(json.dumps(doc))
    predicted = expected_count(cfg.replace(collapse=grw_defaults().replace(g_n=M_N_OVER_M_P + bound)))
    assert predicted == pytest.approx(n_limit, rel=2**-51 * (M_N_OVER_M_P / bound + 4), abs=0)


def check_the_neutron_bound_scales_exactly(run, doc, steps, denser_path):
    # the bound is sqrt(n_limit / (coefficient T V)) and the coefficient is linear in the density, so four
    # times the density halves it bit for bit; a larger n_sigma raises the count limit, never lowering the bound
    code, data = analyze_structured(run)
    if code != 0:
        return
    bound = data["bounds"]["gn_bound_at_grw"]
    denser = {**doc, "experiment": {**doc["experiment"], "deuteron_density_per_cc": 4 * doc["experiment"]["deuteron_density_per_cc"]}}
    code, data = analyze_structured(runs_on(denser_path, denser))
    assert code == 0 and data["bounds"]["gn_bound_at_grw"] == bound / 2
    bounds = [bound]
    for n_sigma in itertools.accumulate(steps, initial=doc["n_sigma"]):
        code, data = analyze_structured(run, "--nsigma", repr(n_sigma))
        assert code == 0
        bounds.append(data["bounds"]["gn_bound_at_grw"])
    assert bounds == sorted(bounds)


def check_the_bounds_at_grw_strength_agree_wherever_computed(run, doc, kind_path):
    # run_full_analysis and scan_exclusion each compute the neutron bound; the electron half-width is one
    # constant, which the curve writers scale to each point as the neutron bound is scaled
    for kind in ModelKind:
        kind_doc = {**doc, "model": {**doc["model"], "kind": kind.value}}
        code, data = analyze_structured(run if kind_doc == doc else runs_on(kind_path, kind_doc))
        if code != 0:
            continue
        cfg = parse_config(json.dumps(kind_doc))
        report = run_full_analysis(cfg)
        assert report.gn_bound_at_grw.hex() == scan_exclusion(cfg).gn_bound_at_grw.hex()
        assert report.ge_half_width_at_grw == data["bounds"]["ge_half_width_at_grw"] == GE_HALF_WIDTH_AT_GRW
        for point in data["curve"]["points"]:
            assert point["ge_bound"] == GE_HALF_WIDTH_AT_GRW * math.sqrt(GRW_LAMBDA_OVER_A2 / point["lambda_over_a2"])


@settings(max_examples=40, deadline=None)
@given(doc=near_default_documents(), steps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
def each_check_of_a_near_default_config(base, doc, steps):
    # one drawn document for every check on it; a run two checks read is made once
    run = runs_on(base / "near_default.json", doc)
    analyze = ("analyze",) if doc["collapse"]["g_n"] is None else ("analyze", "--predict")
    check_csv_and_structured_outputs_agree_bit_for_bit(run, analyze, doc)
    check_text_report_prints_the_structured_values(run, analyze, doc)
    check_the_neutron_bound_inverts_to_the_count_limit(run, doc)
    check_the_neutron_bound_scales_exactly(run, doc, steps, base / "near_default_denser.json")
    check_the_bounds_at_grw_strength_agree_wherever_computed(run, doc, base / "near_default_kind.json")


@functools.cache
def failures_by_check(prop, base):
    """Run the hypothesis property prop once, writing its files in base, and map each failure it raises (one, or each
    of a group) to the name of the outermost check_ function it was raised in, or to None."""
    try:
        prop(base=base)
    except Exception as raised:
        failures = {}
        for failure in getattr(raised, "exceptions", [raised]):
            names = (frame.f_code.co_name for frame, _ in traceback.walk_tb(failure.__traceback__))
            failures.setdefault(next((name for name in names if name.startswith("check_")), None), failure)
        return failures
    return {}


def assert_check_held(prop, check, tmp_path_factory):
    """Raise check's failure in prop's one run; where prop stopped at another failure, before check ran on every drawn
    example, fail with that failure as the cause."""
    failures = failures_by_check(prop, tmp_path_factory.getbasetemp())
    if check.__name__ in failures:
        raise failures[check.__name__]
    for name, failure in failures.items():
        raise AssertionError(f"{check.__name__} did not run on every drawn example: {name or prop.__name__} failed") from failure


def test_csv_and_structured_outputs_agree_bit_for_bit(tmp_path_factory):
    assert_check_held(each_check_of_a_near_default_config, check_csv_and_structured_outputs_agree_bit_for_bit, tmp_path_factory)


def test_text_report_prints_the_structured_values(tmp_path_factory):
    assert_check_held(each_check_of_a_near_default_config, check_text_report_prints_the_structured_values, tmp_path_factory)


def test_the_neutron_bound_inverts_to_the_count_limit(tmp_path_factory):
    assert_check_held(each_check_of_a_near_default_config, check_the_neutron_bound_inverts_to_the_count_limit, tmp_path_factory)


def test_the_neutron_bound_scales_exactly(tmp_path_factory):
    assert_check_held(each_check_of_a_near_default_config, check_the_neutron_bound_scales_exactly, tmp_path_factory)


def test_the_bounds_at_grw_strength_agree_wherever_computed(tmp_path_factory):
    assert_check_held(each_check_of_a_near_default_config, check_the_bounds_at_grw_strength_agree_wherever_computed, tmp_path_factory)


# n_sigma 0 and an observed count equal to the prediction: the count limit and the neutron bound are 0
ZERO_NEUTRON_BOUND = {
    "n_sigma": 0.0,
    "experiment": {
        "efficiency": 1.0,
        "live_time_days": 100.0,
        "observed": {"value": 1000.0},
        "ssm_rate_per_day": {"value": 10.0},
    },
}


def test_unbounded_strength_ratio_is_null_an_empty_cell_and_inf(capsys, tmp_path):
    path = write_config(tmp_path, ZERO_NEUTRON_BOUND)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out, err = run_cli(capsys, "analyze", "--config", path, "--format", "structured")
    assert code == 0 and err == ""
    bounds = json.loads(out, parse_constant=reject)["bounds"]
    assert bounds["gn_bound_at_grw"] == 0.0 and bounds["strength_ratio"] is None
    code, out, err = run_cli(capsys, "analyze", "--config", path, "--format", "csv")
    assert code == 0 and err == ""
    assert ["strength_ratio", "", "", ""] in parse_csv(out)[2]
    code, out, err = run_cli(capsys, "analyze", "--config", path)
    assert code == 0 and err == ""
    assert "  electron/neutron fractional-width ratio = inf\n" in out


@given(st.floats() | st.sampled_from([1e-5, 1e7, 1e100, 5e-324, -0.0]))
def test_fmt_is_g_format_without_zero_padded_exponents(x):
    assert cli._fmt(x) == re.sub(r"e([+-])0(\d)", r"e\1\2", f"{x:g}")


def test_ratio_prints_one_decimal_from_five_hundredths():
    assert cli._fmt_ratio(0.05) == "0.1"
    assert cli._fmt_ratio(math.nextafter(0.05, 0)) == "0.05"


@pytest.mark.parametrize(
    "diameter_cm, regime",
    [
        (1e-5, "large-a visibility constraint dominates at a=1e-05 cm (a > d/2)"),
        (2e-5, "large-a visibility constraint dominates at a=1e-05 cm (a = d/2)"),
        (4e-5, "small-a visibility constraint dominates at a=1e-05 cm (a < d/2)"),   # the default
    ],
)
def test_floor_regime_names_each_branch(capsys, tmp_path, diameter_cm, regime):
    path = write_config(tmp_path, {"sphere": {"diameter_cm": diameter_cm}})
    code, out, err = run_cli(capsys, "analyze", "--config", path, "--format", "structured")
    assert code == 0 and err == ""
    assert json.loads(out)["floor_regime"] == regime
    code, out, err = run_cli(capsys, "analyze", "--config", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[lines.index("warnings") - 1] == f"  {regime}"


def test_report_table_reads_every_report_number():
    # a float or count field missing from REPORT would be dropped from every output; a name with no value would fail
    report = default_report()
    numbers = {name for name in report._fields if isinstance(getattr(report, name), (float, AsymmetricValue))}
    names = {csv_name or key for _, key, csv_name, _ in cli.REPORT}
    assert numbers <= names
    assert names <= {*report._fields, *cli._curve_block(report.curve), "predicted_csl_counts"}
    assert {section for section, *_ in cli.REPORT} <= set(cli.TEXT_SECTIONS)


def test_analyze_hulthen_override_warns(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "hulthen", "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert any("<r^2>" in w for w in data["warnings"])


def test_analyze_predict(capsys, tmp_path):
    path = write_config(tmp_path, {"collapse": {"g_n": 0.5}})
    code, out, _ = run_cli(capsys, "analyze", "--config", path, "--predict", "--format", "structured")
    assert code == 0
    data = json.loads(out)
    # the rate per deuteron times the deuterons in the fiducial sphere times the live time in seconds
    rate = deuteron_rate(CollapseParams(1e-16, 1e-5, g_n=0.5), BoundStateModel(binding_energy_mev=EB_DEFAULT))
    deuterons = (2.0 / 3.0) * 1e23 * (4 * np.pi / 3) * 550.0**3
    expected = rate * deuterons * 254.2 * 86400.0
    assert data["predicted_csl_counts"] == pytest.approx(expected, rel=1e-12)


def test_analyze_nsigma_override(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--nsigma", "0", "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["n_limit"] == pytest.approx(56, abs=3)


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["lambda_over_a2", "gn_bound", "ge_bound"]
    assert any("ceiling" in c and "2.5" in c for c in comments)
    assert any("floor" in c for c in comments)
    assert all(len(r) == 3 for r in rows)

    lds = np.array([float(r[0]) for r in rows])
    gns = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(gns) < 0)
    nearest = int(np.argmin(np.abs(lds - 1e-6)))
    assert 0.0073 <= gns[nearest] <= 0.0077


def test_scan_structured(capsys):
    code, out, _ = run_cli(capsys, "scan", "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["experimental_ceiling"] == 2.5
    assert len(data["points"]) == 201


def test_scan_output_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "scan", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("#")


def test_spectrum_rate_matches_total(capsys, tmp_path):
    path = write_config(tmp_path, {"collapse": {"g_n": 0}})
    code, out, _ = run_cli(capsys, "spectrum", "--config", path)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["k_per_fm", "rate_density"]
    ks = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    total = np.trapezoid(dens, ks)
    rate = deuteron_rate(CollapseParams(1e-16, 1e-5, g_n=0.0), BoundStateModel(binding_energy_mev=EB_DEFAULT))
    assert total == pytest.approx(rate, rel=0.01, abs=0)
    # low k edge is phase-space suppressed
    assert dens[0] < 1e-4 * dens.max()


def test_spectrum_mass_proportional_is_all_zero(capsys, tmp_path):
    path = write_config(tmp_path, {"collapse": {"g_n": M_N_OVER_M_P}})
    code, out, _ = run_cli(capsys, "spectrum", "--config", path)
    assert code == 0
    _, _, rows = parse_csv(out)
    assert all(float(r[1]) == 0.0 for r in rows)


def test_spectrum_density_quantity_needs_no_coupling(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--quantity", "density")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["k_per_fm", "density_fm3"]
    assert len(rows) == 200


def test_spectrum_structured(capsys, tmp_path):
    path = write_config(tmp_path, {"collapse": {"g_n": 0}})
    code, out, _ = run_cli(capsys, "spectrum", "--config", path, "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == ["k_per_fm", "rate_density"]
    assert len(data["rows"]) == 200


@pytest.mark.parametrize("kind", ["zero-range", "hulthen"])
@pytest.mark.parametrize("quantity", ["density", "rate"])
def test_spectrum_rows_are_the_per_point_values(capsys, tmp_path, kind, quantity):
    # the CLI computes a whole grid at once; each row holds the bits of the per-point functions
    path = write_config(tmp_path, {"collapse": {"g_n": 0.5}, "model": {"kind": kind}})
    code, out, err = run_cli(capsys, "spectrum", "--config", path, "--quantity", quantity)
    assert code == 0 and err == ""
    cfg = load_config(path)
    model = cfg.model
    if quantity == "rate":
        expected = [(k, deuteron_spectra(cfg.collapse, model, (k,))[0]) for k in default_k_grid(model)]
    else:
        expected = [(k, spectrum_densities(model, (k,))[0]) for k in default_k_grid(model)]
    _, _, rows = parse_csv(out)
    assert [(float(k), float(value)) for k, value in rows] == expected


def test_constants_output(capsys):
    code, out, err = run_cli(capsys, "constants")
    assert code == 0 and err == ""
    assert "1e-16" in out
    assert "1e-5" in out
    assert "1.0013784" in out  # m_n/m_p to 8 significant digits


def test_constants_deterministic(capsys):
    _, first, _ = run_cli(capsys, "constants")
    _, second, _ = run_cli(capsys, "constants")
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "analyze" in out


def test_numerical_failure_exits_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise QuadratureError("synthetic non-convergence")

    monkeypatch.setattr(cli, "run_full_analysis", boom)
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2
    assert err.startswith("error[numeric]:")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()   # 0: integers have no digit limit


@pytest.mark.parametrize(
    "document",
    [
        '{"sphere": ' + "[" * 100_000 + "]" * 100_000 + "}",
        pytest.param(
            '{"n_sigma": 1' + "0" * DIGIT_LIMIT + "}",
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="integers have no digit limit"),
        ),
    ],
    ids=["nested-past-recursion-limit", "integer-past-digit-limit"],
)
def test_a_document_json_refuses_is_one_config_error(capsys, tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(document)
    code, out, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error[config]: invalid JSON: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(doc=physical_configs())
def test_every_config_ends_with_an_exit_code_and_a_failure_with_one_line(tmp_path_factory, doc):
    # today's classes, which this records and does not judge: a downward fluctuation or an empty allowed window
    # still exits 1. A document that does not parse exits 1, or 2 for a model floats cannot hold.
    path = tmp_path_factory.getbasetemp() / "physical.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "scan"):
        code, out, err = run_in_process(command, "--config", str(path))
        event(f"{command} exits {code}")
        if code:
            assert out == "" and re.fullmatch(rf"error\[{'config' if code == 1 else 'numeric'}\]: [^\n]*\n", err), err
        else:
            assert out and err == ""


SUBCOMMANDS = ("analyze", "scan", "spectrum", "constants")
# name -> (exit code, config document or None, argv, stderr line), from each line of tests/golden/failures.txt
FAILURES = {
    name: (int(code), None if config == "-" else config, argv.split(), line)
    for name, code, config, argv, line in (
        row.split(" | ", 4) for row in (GOLDEN / "failures.txt").read_text(encoding="utf-8").splitlines()
        if row and not row.startswith("#")
    )
}


def check_failing_run(capsys, monkeypatch, tmp_path, name):
    """Run the manifest line name with main in tmp_path, its config written there as config.json. It must end with
    the declared exit code, no stdout, no new file and the declared stderr line: the whole line, or its start where
    the declared line ends in `...`. Where its argv names a subcommand and gives no --output, it runs again with
    --output and must end the same, as the failure comes before the first byte. Nothing may warn on the way."""
    want, config, argv, line = FAILURES[name]
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("config.json").write_text(config + "\n", encoding="utf-8")
        argv = [*argv, "--config", "config.json"]
    runs = [argv, [*argv, "--output", "out"]] if argv and argv[0] in SUBCOMMANDS and "--output" not in argv else [argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in runs:
            files = sorted(os.listdir())
            code, out, err = run_cli(capsys, *run)
            assert (code, out, sorted(os.listdir())) == (want, "", files), err
            if line.endswith("..."):
                assert err.startswith(line[:-3]) and err.count("\n") == 1 and err.endswith("\n"), err
            else:
                assert err == line + "\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.fixture
def failing_run(capsys, monkeypatch, tmp_path):
    return functools.partial(check_failing_run, capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("name", FAILURES)
def test_a_failing_run_ends_as_declared(failing_run, name):
    failing_run(name)


@pytest.mark.parametrize("argv", [("analyze",), ("scan",), ("spectrum", "--quantity", "density"), ("constants",)])
def test_an_empty_output_path_is_a_file_that_cannot_be_written(capsys, argv):
    # as an empty --config path is a file that cannot be read; an empty argument cannot be a manifest line
    expected = (1, "", "error[config]: cannot write output file '': No such file or directory\n")
    assert run_cli(capsys, *argv, "--output", "") == expected


@pytest.mark.parametrize("command", ["analyze", "scan", "spectrum"])
def test_model_floats_cannot_hold_fails_once_every_config_key_is_read(capsys, tmp_path, command):
    # the manifest's huge-hulthen lines fail as the model is built, after every other key and flag is read;
    # zero-range never reads beta/kappa, so the model fails exactly when Hulthen is selected
    model = json.loads(FAILURES[f"huge-hulthen-{command}"][1])["model"]
    with_gn = write_config(tmp_path, {"model": model, "collapse": {"g_n": 0.5}})
    assert run_cli(capsys, command, "--config", with_gn, "--model", "zero-range")[0] == 0
    zero_range = write_config(tmp_path, {"model": {**model, "kind": "zero-range"}, "collapse": {"g_n": 0.5}})
    assert run_cli(capsys, command, "--config", zero_range)[0] == 0


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_repeated_grid_points_are_config_error(capsys, tmp_path, monkeypatch, command):
    for spacing in ("linear", "log"):
        # the manifest's grid-repeats lines fail as the curve is built, not while the config is read, so
        # spectrum, which draws no curve, runs
        scan = json.loads(FAILURES[f"grid-repeats-{spacing}-{command}"][1])["scan"]
        path = write_config(tmp_path, {"scan": scan})
        with monkeypatch.context() as patch:
            patch.setattr(ScanSpec, "grid", lambda spec: pytest.fail("grid built while the config is read"))
            assert load_config(path).scan.hi == scan["max"]
        code, out, err = run_cli(capsys, "spectrum", "--quantity", "density", "--config", path)
        assert code == 0 and err == "" and out


def test_huge_counts_keep_text_lines_short(capsys, tmp_path):
    path = write_config(tmp_path, {"experiment": {"observed": {"value": 1e307, "stat_up": 1e307}}})
    code, out, err = run_cli(capsys, "analyze", "--config", path)
    assert code == 0 and err == ""
    assert "n_expt  = 2.50000e+307 +2.50000e+307/" in out
    assert max(len(line) for line in out.splitlines()) < 200


def test_tiny_strength_ratio_is_printed_nonzero(capsys, tmp_path):
    path = write_config(tmp_path, {"experiment": {"observed": {"value": 1e307, "stat_up": 1e307}}})
    _, structured, _ = run_cli(capsys, "analyze", "--config", path, "--format", "structured")
    ratio = json.loads(structured)["bounds"]["strength_ratio"]
    assert 0 < ratio < 0.05
    code, out, err = run_cli(capsys, "analyze", "--config", path)
    assert code == 0 and err == ""
    assert f"  electron/neutron fractional-width ratio = {cli._fmt(ratio)}\n" in out
    assert float(cli._fmt(ratio)) == pytest.approx(ratio, rel=1e-5, abs=0)


@pytest.mark.parametrize("argv", [("scan",), ("spectrum", "--quantity", "density")])
def test_table_commands_print_csv_as_text(capsys, argv):
    code, text, err = run_cli(capsys, *argv, "--format", "text")
    assert code == 0 and err == ""
    assert run_cli(capsys, *argv, "--format", "csv") == (0, text, "")


# Curve points are written from templates; the oracle is what the json and csv
# modules write for the same values. A curve is its ScanSpec and its neutron bound at GRW
# strength; the grid starts at 1e-300 so that bounds up to 1e150 stay finite. Both columns
# go through the same template, so the float edge cases are drawn for the neutron bound.
EDGE_VALUES = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e16)
bound_floats = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from(EDGE_VALUES)
grid_floats = st.floats(min_value=1e-300, allow_infinity=False) | st.sampled_from([1e-300, 1e-6, 1.7976931348623157e308])


scan_specs = st.builds(
    lambda ends, points, log_spacing: ScanSpec(*sorted(ends), points, log_spacing),
    st.sets(grid_floats, min_size=2, max_size=2),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
).filter(holds_a_grid)
curve_args = st.tuples(scan_specs, bound_floats)
CURVE_EXAMPLES = (
    (ScanSpec(1.0, 2.0, 2, log_spacing=False), -0.0),
    (ScanSpec(1.0, 2.0, 2, log_spacing=False), 5e-324),
    (ScanSpec(1e-314, 1e-300, 2, log_spacing=False), 0.0),   # near the smallest grid point whose scaling stays finite
    (ScanSpec(1e-314, 1e-300, 2, log_spacing=False), 1e-160),
    (ScanSpec(2.2250738585072014e-308, 1.7976931348623157e308, 2, log_spacing=False), 2.6e157),
    (ScanSpec(1e-6, 1.7976931348623157e308, 2, log_spacing=False), 1.7976931348623157e308),
    (ScanSpec(1e-6, 1.7976931348623157e308, 2, log_spacing=False), -1.7976931348623157e308),
)


def with_curve_examples(test):
    for args in CURVE_EXAMPLES:
        test = example(args)(test)
    return test


def point_dicts(columns) -> list[dict]:
    return [dict(zip(cli.CURVE_COLUMNS, row)) for row in zip(*columns)]


@functools.cache
def default_report():
    return run_full_analysis(default_config())


@given(curve_args)
@with_curve_examples
def test_scan_json_matches_encoder(args):
    curve = curve_of(*args)
    block = cli._curve_block(curve)
    assert "".join(cli._json(block, curve)) == json.dumps({**block, "points": point_dicts(columns(curve))}, indent=2) + "\n"


def test_json_keeps_no_curve_alive():
    # a 1.5e4-point curve holds about 0.5 MB; it must not wait in a reference cycle for the collector
    curve = curve_of(*CURVE_EXAMPLES[4])
    ref = weakref.ref(curve)
    gc.disable()
    try:
        "".join(cli._json(cli._curve_block(curve), curve))
        del curve
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_write_memory_does_not_grow_with_output(fmt):
    # a 1.5e4-point curve is about 1 MB as csv and 2.1 MB as JSON; one batch of pieces is about 70 kB
    cfg = default_config()
    curve = scan_exclusion(cfg.replace(scan=cfg.scan.replace(points=15000)))
    if fmt == "csv":
        pieces = functools.partial(cli._curve_csv, curve, "# note\n")
    else:
        pieces = functools.partial(cli._json, cli._curve_block(curve), curve)
    size = len("".join(pieces()).encode())
    tracemalloc.start()
    try:
        cli._write(os.devnull, pieces())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * size


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
def test_pieces_reach_the_stream_512_per_write(count):
    writes = []
    pieces = [f"{i}\n" for i in range(count)]
    with contextlib.redirect_stdout(SimpleNamespace(write=writes.append)):
        cli._write(None, iter(pieces))
    assert len(writes) == math.ceil(count / 512)
    assert "".join(writes) == "".join(pieces)


def record_fields(record):
    return {name: getattr(record, name) for name in record._fields}


@given(curve_args)
@with_curve_examples
def test_analyze_json_matches_encoder(args):
    curve = curve_of(*args)
    data = cli._report_structured(cli._report_rows(default_report().replace(curve=curve), None))
    expected = {**data, "curve": {**data["curve"], "points": point_dicts(columns(curve))}}
    assert "".join(cli._json(data, curve)) == json.dumps(expected, indent=2, default=record_fields) + "\n"


@given(curve_args)
@with_curve_examples
def test_scan_csv_matches_csv_writer(args):
    curve = curve_of(*args)
    table = columns(curve)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CURVE_COLUMNS)
    writer.writerows(zip(*table))
    assert "".join(cli._curve_csv(curve, "# note\n")) == "# note\n" + buf.getvalue()
    # analyze rows: [name, central, err_up, err_down] or [name, value, "", ""]; spectrum rows: (k, value)
    analyze_rows = [["n_csl", *row] for row in zip(*table)] + [["model_r2_cm2", x, "", ""] for x in table[1]]
    spectrum_rows = list(zip(table[0], table[1]))
    for header, rows in (
        (["quantity", "central", "err_up", "err_down"], analyze_rows),
        (["k_per_fm", "rate_density"], spectrum_rows),
    ):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert "".join(cli._csv(header, rows)) == buf.getvalue()


class FailingStdout(io.StringIO):
    """A stdout whose every write raises error."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


FULL_DISK = f"error[config]: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("command", ["scan", "constants", "--help"])
def test_unwritable_stdout_is_one_config_error(command):
    err = io.StringIO()
    with contextlib.redirect_stdout(FailingStdout(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))):
        with contextlib.redirect_stderr(err):
            assert cli.main([command]) == 1
    assert err.getvalue() == FULL_DISK


def test_closed_stdout_is_left_to_the_entrypoint():
    # main reports no closed pipe: entrypoint ends the process quietly, exit 1
    with contextlib.redirect_stdout(FailingStdout(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))):
        with pytest.raises(BrokenPipeError):
            cli.main(["scan"])


def test_closed_stdout_during_help_is_left_to_the_entrypoint():
    with contextlib.redirect_stdout(FailingStdout(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))):
        with pytest.raises(BrokenPipeError):
            cli.main(["--help"])


def test_repeated_main_calls_match_fresh_calls(capsys, monkeypatch, failing_run):
    # one parser serves every main() call in a process; a usage error, or any failing run, must leave no state behind
    expected = []
    for argv in [(), ("analyze", "--format", "xml")]:   # no subcommand, and an argv argparse refuses
        fresh = subprocess.run(
            [sys.executable, "-m", "cslbounds.cli", *argv],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert fresh.returncode == 1 and "error[usage]" in fresh.stderr
        expected.append((argv, (fresh.returncode, fresh.stdout, fresh.stderr)))
    expected += [(argv, (0, (GOLDEN / name).read_text(encoding="utf-8"), "")) for name, argv in GOLDEN_CASES.items()]
    # the failing runs, each once, come between two passes of the usage errors and goldens, so state left either way shows
    monkeypatch.chdir(ROOT)   # where the golden manifest's paths start
    for argv, output in expected:
        assert run_cli(capsys, *argv) == output
    for name in FAILURES:
        failing_run(name)
    monkeypatch.chdir(ROOT)
    for argv, output in expected:
        assert run_cli(capsys, *argv) == output


UNLOADED_MODULES = ("numpy", "scipy", "dataclasses", "inspect")


@pytest.fixture(scope="module")
def cold_start_modules():
    # one probe process lists the top-level modules a cold CLI start has loaded
    probe = "import cslbounds.cli, sys; print('\\n'.join(sorted({m.split('.')[0] for m in sys.modules})))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("module", UNLOADED_MODULES)
def test_cli_import_does_not_load(cold_start_modules, module):
    # no runtime dependencies, and records that compile no code: a cold CLI start imports none of these
    assert module not in cold_start_modules
