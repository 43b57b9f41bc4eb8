"""Command-line interface.

Subcommands: analyze (full constraint report), scan (exclusion curve over
lambda/a^2), spectrum (dissociation spectrum over relative momentum), and
constants. Exit codes: 0 success, 1 usage or configuration error or a
stdout closed by its reader, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, islice

from .config import ConfigError, RunConfig, load_config
from .constants import (
    GRW_LAMBDA_OVER_A2,
    HBAR_C_MEV_FM,
    M_E_OVER_M_P,
    M_N_OVER_M_P,
    REDUCED_MASS_NP_MEV,
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
    grw_defaults,
    lambda_over_a2,
)
from .deuteron import ModelKind, default_k_grid, spectrum_densities
from .limits import RADIATION_CEILING, AnalysisReport, ExclusionCurve, ScanGridError, run_full_analysis, scan_exclusion
from .quadrature import QuadratureError
from .records import ConstraintError
from .rates import deuteron_spectra, expected_count
from .uncertainty import AsymmetricValue, display_number

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

FORMATS = ("text", "csv", "structured")
# a curve point's columns, in output column order
CURVE_COLUMNS = ("lambda_over_a2", "gn_bound", "ge_bound")
# written by the JSON encoder where a curve's points go, then replaced by them
_POINTS_MARK = "\0points"
_BATCH = 512   # pieces joined per write call; 512 curve points are about 70 kB


def _fmt(x: float) -> str:
    """Compact scientific formatting without zero-padded exponents (1e-5, 2.5)."""
    return re.sub(r"e([+-])0(\d)", r"e\1\2", f"{x:g}")


def _fmt_ratio(x: float) -> str:
    """One decimal (1606.5), or `_fmt` where one decimal would print a nonzero ratio as 0.0."""
    return _fmt(x) if 0 < x < 0.05 else f"{x:.1f}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_CONFIG, f"error[usage]: {message}\n")


def _add_common_options(sub: argparse.ArgumentParser, text_is_csv: bool = False) -> None:
    format_help = "output format (default: text)"
    if text_is_csv:
        format_help += "; text prints exactly what csv prints"
    sub.add_argument("--config", metavar="PATH", help="JSON configuration file (defaults reproduce the reference experiment)")
    sub.add_argument("--format", choices=FORMATS, default="text", help=format_help)
    sub.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")
    sub.add_argument("--model", choices=[k.value for k in ModelKind], help="override the bound-state model kind")
    sub.add_argument("--nsigma", type=float, metavar="X", help="override the limit significance")


@functools.cache   # parsing does not change the parser, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cslbounds", description="Collapse-model excitation rates and coupling exclusion bounds.")
    subparsers = parser.add_subparsers(dest="command")

    analyze = subparsers.add_parser("analyze", help="run the full constraint analysis")
    _add_common_options(analyze)
    analyze.add_argument("--predict", action="store_true", help="also report the expected excess count for the configured g_n")
    analyze.set_defaults(handler=_cmd_analyze)

    scan = subparsers.add_parser("scan", help="emit the exclusion curve over lambda/a^2")
    _add_common_options(scan, text_is_csv=True)
    scan.set_defaults(handler=_cmd_scan)

    spectrum = subparsers.add_parser("spectrum", help="emit the dissociation spectrum over relative momentum")
    _add_common_options(spectrum, text_is_csv=True)
    spectrum.add_argument(
        "--quantity",
        choices=("rate", "density"),
        default="rate",
        help="rate: dR/dk in 1/s per 1/fm (needs g_n); density: matrix-element spectrum in fm^3",
    )
    spectrum.set_defaults(handler=_cmd_spectrum)

    constants = subparsers.add_parser("constants", help="print constants and GRW defaults")
    constants.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")
    constants.set_defaults(handler=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error[usage]: a subcommand is required\n")
        return EXIT_CONFIG
    try:
        return args.handler(args)
    # inputs were checked as config, so a record's ConstraintError is on a computed value
    except (QuadratureError, OverflowError, ConstraintError) as exc:
        sys.stderr.write(f"error[numeric]: {exc}\n")
        return EXIT_NUMERIC
    except ScanGridError as exc:   # every curve the CLI builds is on the config's scan block
        sys.stderr.write(f"error[config]: scan.min, scan.max, scan.points: {exc}\n")
        return EXIT_CONFIG
    except ValueError as exc:   # ConfigError, and the argument checks of the library's functions
        sys.stderr.write(f"error[config]: {exc}\n")
        return EXIT_CONFIG


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CONFIG
    raise SystemExit(code)


def _load(args) -> RunConfig:
    changes = {"model": {"kind": args.model}} if args.model else {}
    if args.nsigma is not None:
        changes["n_sigma"] = args.nsigma
    return load_config(args.config, changes)


def _write(args, pieces: Iterable[str]) -> None:
    """The one output path: pieces go to stdout or the --output file, _BATCH per write, so
    memory does not grow with the output. The first batch is drawn before the file is
    opened, so a writer that fails before its first piece creates no file."""
    pieces = iter(pieces)
    batch = list(islice(pieces, _BATCH))
    path = args.output
    try:
        with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
            while batch:
                out.write("".join(batch))
                batch = list(islice(pieces, _BATCH))
    except OSError as exc:
        if not path:
            raise
        raise ConfigError(f"cannot write output file {path!r}: {exc.strerror}") from None


def _json(data: dict) -> Iterator[str]:
    """`json.dumps(data, indent=2)` in pieces, an AsymmetricValue written as an object of its
    three fields. All but a curve's points are encoded before the first piece; `_points_json`
    writes them into the place the encoder leaves, so it never walks one dict per point."""
    curves = []

    def encode(obj):
        if isinstance(obj, ExclusionCurve):
            curves.append(obj)
            return _POINTS_MARK
        if isinstance(obj, AsymmetricValue):
            return {"central": obj.central, "err_up": obj.err_up, "err_down": obj.err_down}
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")

    text = json.dumps(data, indent=2, default=encode)
    # the indenting encoder's nested functions form a reference cycle that holds encode;
    # emptied now, the list keeps no curve alive until the next garbage collection
    pending = curves.copy()
    curves.clear()
    for curve in pending:
        head, _, text = text.partition(json.dumps(_POINTS_MARK))
        line = head[head.rfind("\n") + 1 :]
        yield head
        yield from _points_json(curve, line[: len(line) - len(line.lstrip(" "))])
    yield text + "\n"


def _points_json(curve: ExclusionCurve, pad: str) -> Iterator[str]:
    """The points in the layout `json.dumps(indent=2)` gives a list of {column: value}
    dicts on a line indented by pad, one piece per point. One f-string per point gives
    the same bytes: the encoder also writes a finite float as its repr, a curve's grid
    has two finite points at least, and its bounds are finite."""
    item, key = pad + "  ", pad + "    "
    x_key, gn_key, ge_key = (f"\n{key}{json.dumps(c)}: " for c in CURVE_COLUMNS)
    head, end = f"\n{item}{{{x_key}", f"\n{item}}}"
    gn, ge = curve.gn_bound_at_grw, curve.ge_bound_at_grw
    sep = "["
    for x, f in curve.scalings():
        yield f"{sep}{head}{x!r},{gn_key}{gn * f!r},{ge_key}{ge * f!r}{end}"
        sep = ","
    yield f"\n{pad}]"


def _csv(header: Iterable[str], rows: Iterable[Iterable[str | float]]) -> Iterator[str]:
    """The rows as csv.writer writes them, a piece per row: a float is its repr, a name or ""
    is written as it is. No name here holds a comma, a quote or a line break, so none is quoted."""
    return (",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in chain([header], rows))


def _curve_csv(curve: ExclusionCurve, preamble: str) -> Iterator[str]:
    """The points as csv.writer writes them, a piece per point: a finite float is its repr, never quoted."""
    gn, ge = curve.gn_bound_at_grw, curve.ge_bound_at_grw
    yield preamble + ",".join(CURVE_COLUMNS) + "\n"
    yield from (f"{x!r},{gn * f!r},{ge * f!r}\n" for x, f in curve.scalings())


def _curve_block(curve: ExclusionCurve) -> dict:
    """The curve as structured output shows it, in `scan` and in the analyze report."""
    return {
        "theoretical_floor": curve.theoretical_floor,
        "experimental_ceiling": RADIATION_CEILING,
        "points": curve,   # listed point by point only when written as JSON
    }


def _pick(report: AnalysisReport, *names: str) -> dict:
    return {name: getattr(report, name) for name in names}


def _analyze_report(report: AnalysisReport, predicted: float | None) -> dict:
    """The analyze report; the structured output is this dict, the text and csv outputs views of it."""
    data = {
        "counts": _pick(report, "n_expt", "n_ssm", "n_csl", "n_limit", "n_sigma"),
        "bounds": _pick(
            report, "gn_bound_at_grw", "gn_bound_rounded", "ge_half_width_at_grw", "ge_upper_at_grw", "strength_ratio"
        ),
        "model": {"r2_cm2": report.model_r2_cm2},
        "curve": _curve_block(report.curve),
        "floor_regime": report.floor_regime,
        "warnings": list(report.warnings),
    }
    if predicted is not None:
        data["predicted_csl_counts"] = predicted
    return data


def _report_csv_rows(data: dict):
    """One row per number in the report, named by its key; model keys carry the section
    name, and n_sigma, the input the limit was computed at, is left out."""
    for section, block in data.items():
        for key, value in block.items() if isinstance(block, dict) else [(section, block)]:
            name = f"{section}_{key}" if section == "model" else key
            if isinstance(value, AsymmetricValue):
                yield [name, value.central, value.err_up, value.err_down]
            elif isinstance(value, float) and key != "n_sigma":
                yield [name, value, "", ""]


def _report_text(data: dict) -> Iterator[str]:
    """The analyze report as text, one piece per line, a view of the `_analyze_report` dict."""
    counts, bounds, curve = data["counts"], data["bounds"], data["curve"]
    lines = ["collapse-coupling constraint analysis", "counts (efficiency-corrected)"]
    lines.extend(
        f"  {name:<7} = {counts[name].display()}   (exact {counts[name].central!r})"
        for name in ("n_expt", "n_ssm", "n_csl")
    )
    lines += [
        f"  one-sided upper limit ({_fmt(counts['n_sigma'])} sigma) = {display_number(counts['n_limit'])}",
        "model",
        f"  <r^2> = {data['model']['r2_cm2']:.6e} cm^2",
        f"bounds at lambda/a^2 = {_fmt(GRW_LAMBDA_OVER_A2)} 1/(s cm^2)",
        f"  |g_n - m_n/m_p| < {bounds['gn_bound_at_grw']:.6g}   (rounded up: {_fmt(bounds['gn_bound_rounded'])})",
        f"  |g_e - m_e/m_p| < {bounds['ge_half_width_at_grw']:.6g}   (g_e < {bounds['ge_upper_at_grw']:.6g})",
        f"  electron/neutron fractional-width ratio = {_fmt_ratio(bounds['strength_ratio'])}",
        "exclusion curve",
        f"  theoretical floor    = {curve['theoretical_floor']:.6g} 1/(s cm^2)",
        f"  experimental ceiling = {_fmt(curve['experimental_ceiling'])} 1/(s cm^2)",
        f"  {data['floor_regime']}",
    ]
    if "predicted_csl_counts" in data:
        lines.append(f"predicted excess count for configured g_n = {data['predicted_csl_counts']:.6g}")
    lines.append("warnings")
    lines.extend(f"  {w}" for w in data["warnings"] or ["none"])
    return (line + "\n" for line in lines)


def _cmd_analyze(args) -> int:
    cfg = _load(args)
    report = run_full_analysis(
        cfg.experiment,
        cfg.sphere,
        cfg.model,
        n_sigma=cfg.n_sigma,
        scan=cfg.scan,
        a_cm=cfg.collapse.a_length,
    )
    predicted = None
    if args.predict:
        if cfg.collapse.g_n is None:
            raise ConfigError("collapse.g_n must be set to use --predict")
        predicted = expected_count(
            cfg.collapse,
            cfg.experiment.live_time_yr,
            cfg.experiment.fiducial_volume_kilotonne_m3,
            cfg.experiment.deuteron_density_per_cc,
            cfg.model,
        )
    data = _analyze_report(report, predicted)
    if args.format == "text":
        _write(args, _report_text(data))
    elif args.format == "csv":
        _write(args, _csv(["quantity", "central", "err_up", "err_down"], _report_csv_rows(data)))
    else:
        _write(args, _json(data))
    return EXIT_OK


def _cmd_scan(args) -> int:
    cfg = _load(args)
    curve = scan_exclusion(
        cfg.experiment,
        cfg.sphere,
        cfg.scan,
        cfg.model,
        n_sigma=cfg.n_sigma,
        a_cm=cfg.collapse.a_length,
    )
    block = _curve_block(curve)
    if args.format == "structured":
        _write(args, _json(block))
        return EXIT_OK
    comments = "".join(f"# {name}_per_s_cm2 = {value!r}\n" for name, value in block.items() if isinstance(value, float))
    _write(args, _curve_csv(curve, comments))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = _load(args)
    if args.quantity == "rate" and cfg.collapse.g_n is None:
        raise ConfigError(
            "collapse.g_n must be set for the rate spectrum (set it in the config or use --quantity density)"
        )
    ks = default_k_grid(cfg.model)
    if args.quantity == "rate":
        column, values = "rate_density", deuteron_spectra(cfg.collapse, cfg.model, ks)
    else:
        column, values = "density_fm3", spectrum_densities(cfg.model, ks)
    rows = list(zip(ks, values))
    header = ["k_per_fm", column]
    if args.format == "structured":
        _write(args, _json({"columns": header, "rows": rows}))
    else:
        _write(args, _csv(header, rows))
    return EXIT_OK


def _cmd_constants(args) -> int:
    grw = grw_defaults()
    lines = [
        "collapse-model defaults (GRW)",
        f"  lambda_rate      = {_fmt(grw.lambda_rate)} 1/s",
        f"  a_length         = {_fmt(grw.a_length)} cm",
        f"  lambda/a^2       = {_fmt(lambda_over_a2(grw))} 1/(s cm^2)",
        "physical constants",
        f"  m_e/m_p          = {M_E_OVER_M_P:.9g}",
        f"  m_n/m_p          = {M_N_OVER_M_P:.9g}",
        f"  hbar*c           = {HBAR_C_MEV_FM:.7g} MeV fm",
        f"  mu_np            = {REDUCED_MASS_NP_MEV:.6g} MeV/c^2",
        f"  seconds_per_day  = {_fmt(SECONDS_PER_DAY)} s",
        f"  seconds_per_year = {_fmt(SECONDS_PER_YEAR)} s",
    ]
    _write(args, (line + "\n" for line in lines))
    return EXIT_OK


if __name__ == "__main__":
    entrypoint()
