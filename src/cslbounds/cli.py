"""Command-line interface.

Subcommands: analyze (full constraint report), scan (exclusion curve over
lambda/a^2), spectrum (dissociation spectrum over relative momentum), and
constants. Exit codes: 0 success, 1 usage or configuration error, an output
that cannot be written or a stdout closed by its reader, 2 numerical failure.

analyze's text, csv and structured outputs are views of one table, REPORT: a new number
is an AnalysisReport field, its run_full_analysis keyword and one REPORT row. A number that is
not finite (strength_ratio at a zero neutron bound) is null when structured, an empty csv cell.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, islice
from types import SimpleNamespace

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
from .limits import GE_HALF_WIDTH_AT_GRW, RADIATION_CEILING, AnalysisReport, ExclusionCurve, ScanGridError
from .limits import run_full_analysis, scan_exclusion
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
# put where a curve's points go in structured output, then replaced by them
_POINTS_MARK = "\0points"
_BATCH = 512   # pieces joined per write call; 512 curve points are about 70 kB


def _fmt(x: float) -> str:
    """Compact scientific formatting without zero-padded exponents (1e-5, 2.5)."""
    mantissa, e, exponent = f"{x:g}".partition("e")
    return f"{mantissa}e{int(exponent):+d}" if e else mantissa


def _fmt_ratio(x: float) -> str:
    """One decimal (1606.5), or `_fmt` where one decimal would print a nonzero ratio as 0.0."""
    return _fmt(x) if 0 < x < 0.05 else f"{x:.1f}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_CONFIG, f"error[usage]: {message}\n")

    def _print_message(self, message, file=None):
        if file is sys.stdout:   # argparse drops a write that fails; help goes out as any output does
            _write(None, [message])
        else:
            super()._print_message(message, file)


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
        if getattr(args, "handler", None) is None:
            parser.error("a subcommand is required")
        return args.handler(args)
    except SystemExit as exc:   # a usage error, or the help printed
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
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
    except BrokenPipeError:   # the reader closed stdout early, which is no error
        code = EXIT_CONFIG
    try:
        sys.stdout.flush()
    except OSError as exc:
        # main has reported a write that failed, and a closed pipe is no error
        if code == EXIT_OK and not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"error[config]: {_cannot_write(None, exc)}\n")
        code = EXIT_CONFIG
        # point stdout at devnull, so that the flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


def _load(args) -> RunConfig:
    changes = {"model": {"kind": args.model}} if args.model else {}
    if args.nsigma is not None:
        changes["n_sigma"] = args.nsigma
    return load_config(args.config, changes)


def _write(path: str | None, pieces: Iterable[str]) -> None:
    """The one output path: pieces go to stdout, or the file at path, _BATCH per write, so
    memory does not grow with the output. The first batch is drawn before the file is
    opened, so a writer that fails before its first piece creates no file."""
    pieces = iter(pieces)
    batch = list(islice(pieces, _BATCH))
    try:
        with open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout) as out:
            while batch:
                out.write("".join(batch))
                batch = list(islice(pieces, _BATCH))
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and path is None:
            raise   # the reader closed stdout early: entrypoint ends the run quietly
        raise ConfigError(_cannot_write(path, exc)) from None


def _cannot_write(path: str | None, exc: OSError) -> str:
    return f"cannot write {f'output file {path!r}' if path is not None else 'standard output'}: {exc.strerror}"


def _json(data: dict, curve: ExclusionCurve | None = None) -> Iterator[str]:
    """`json.dumps(data, indent=2)` in pieces, with curve's points where `_curve_block` marks them:
    `_points_json` writes them after the rest is encoded, so it never walks one dict per point."""
    text = json.dumps(data, indent=2)
    if curve is not None:
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
    gn, ge = curve.gn_bound_at_grw, GE_HALF_WIDTH_AT_GRW
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
    gn, ge = curve.gn_bound_at_grw, GE_HALF_WIDTH_AT_GRW
    yield preamble + ",".join(CURVE_COLUMNS) + "\n"
    yield from (f"{x!r},{gn * f!r},{ge * f!r}\n" for x, f in curve.scalings())


def _curve_block(curve: ExclusionCurve) -> dict:
    """The curve as structured output shows it, in `scan` and in the analyze report."""
    return {
        "theoretical_floor": curve.theoretical_floor,
        "experimental_ceiling": RADIATION_CEILING,
        "points": _POINTS_MARK,   # listed point by point only when written as JSON
    }


# The analyze report, in the order of its structured and csv outputs. A row gives a value's section ("" is the
# top level), its key there, its csv quantity name (None: no csv row) and its text line, a function of the value
# and of all values by name (None: another row's line shows it). A value is named by its csv name, else its key.
REPORT = (
    ("counts", "n_expt", "n_expt", lambda x, _: f"  n_expt  = {x.display()}   (exact {x.central!r})"),
    ("counts", "n_ssm", "n_ssm", lambda x, _: f"  n_ssm   = {x.display()}   (exact {x.central!r})"),
    ("counts", "n_csl", "n_csl", lambda x, _: f"  n_csl   = {x.display()}   (exact {x.central!r})"),
    ("counts", "n_limit", "n_limit", lambda x, v: f"  one-sided upper limit ({_fmt(v.n_sigma)} sigma) = {display_number(x)}"),
    ("counts", "n_sigma", None, None),   # the input the limit was computed at
    ("bounds", "gn_bound_at_grw", "gn_bound_at_grw",
     lambda x, v: f"  |g_n - m_n/m_p| < {x:.6g}   (rounded up: {_fmt(v.gn_bound_rounded)})"),
    ("bounds", "gn_bound_rounded", "gn_bound_rounded", None),
    ("bounds", "ge_half_width_at_grw", "ge_half_width_at_grw",
     lambda x, v: f"  |g_e - m_e/m_p| < {x:.6g}   (g_e < {v.ge_upper_at_grw:.6g})"),
    ("bounds", "ge_upper_at_grw", "ge_upper_at_grw", None),
    ("bounds", "strength_ratio", "strength_ratio", lambda x, _: f"  electron/neutron fractional-width ratio = {_fmt_ratio(x)}"),
    ("model", "r2_cm2", "model_r2_cm2", lambda x, _: f"  <r^2> = {x:.6e} cm^2"),
    ("curve", "theoretical_floor", "theoretical_floor", lambda x, _: f"  theoretical floor    = {x:.6g} 1/(s cm^2)"),
    ("curve", "experimental_ceiling", "experimental_ceiling", lambda x, _: f"  experimental ceiling = {_fmt(x)} 1/(s cm^2)"),
    ("curve", "points", None, None),   # listed in structured output only
    ("", "floor_regime", None, lambda x, _: f"  {x}"),
    ("", "warnings", None, None),   # the text report closes with them
    ("", "predicted_csl_counts", "predicted_csl_counts", lambda x, _: f"predicted excess count for configured g_n = {x:.6g}"),
)
# the text report's sections in the order it prints them, each by its heading line ("" has none)
TEXT_SECTIONS = {
    "counts": "counts (efficiency-corrected)", "model": "model",
    "bounds": f"bounds at lambda/a^2 = {_fmt(GRW_LAMBDA_OVER_A2)} 1/(s cm^2)", "curve": "exclusion curve", "": None,
}


def _report_rows(report: AnalysisReport, predicted: float | None) -> list[tuple]:
    """(section, key, csv name, text line, value) for each row of REPORT, the predicted count's only if given."""
    values = {**dict(zip(report._fields, report._values())), **_curve_block(report.curve), "predicted_csl_counts": predicted}
    return [(*row, x) for row in REPORT if (x := values[row[2] or row[1]]) is not None]


def _report_structured(rows: list[tuple]) -> dict:
    """The structured report: a count is an object of its three fields, and a number that is
    not finite is written null, as JSON has no inf."""
    data = {}
    for section, key, _, _, value in rows:
        if isinstance(value, AsymmetricValue):
            value = dict(zip(value._fields, value._values()))
        elif isinstance(value, float) and not math.isfinite(value):
            value = None
        (data.setdefault(section, {}) if section else data)[key] = value
    return data


def _report_csv_rows(rows: list[tuple]) -> Iterator[list]:
    """A count's three fields, or one number and empty error cells; a number that is not finite is an empty cell."""
    for _, _, name, _, value in rows:
        if name is None:
            continue
        if isinstance(value, AsymmetricValue):
            yield [name, value.central, value.err_up, value.err_down]
        else:
            yield [name, value if math.isfinite(value) else "", "", ""]


def _report_text(rows: list[tuple]) -> Iterator[str]:
    """The text report, one piece per line: each section's heading and row lines, then the warnings."""
    v = SimpleNamespace(**{name or key: value for _, key, name, _, value in rows})
    yield "collapse-coupling constraint analysis\n"
    for section, heading in TEXT_SECTIONS.items():
        yield from [heading + "\n"] if heading else []
        yield from (line(x, v) + "\n" for s, _, _, line, x in rows if s == section and line)
    yield "warnings\n"
    yield from (f"  {w}\n" for w in v.warnings or ["none"])


def _cmd_analyze(args) -> int:
    cfg = _load(args)
    if args.predict and cfg.collapse.g_n is None:
        raise ConfigError("collapse.g_n must be set to use --predict")
    report = run_full_analysis(cfg)
    rows = _report_rows(report, expected_count(cfg) if args.predict else None)
    if args.format == "text":
        _write(args.output, _report_text(rows))
    elif args.format == "csv":
        _write(args.output, _csv(["quantity", "central", "err_up", "err_down"], _report_csv_rows(rows)))
    else:
        _write(args.output, _json(_report_structured(rows), report.curve))
    return EXIT_OK


def _cmd_scan(args) -> int:
    curve = scan_exclusion(_load(args))
    block = _curve_block(curve)
    if args.format == "structured":
        _write(args.output, _json(block, curve))
        return EXIT_OK
    comments = "".join(f"# {name}_per_s_cm2 = {value!r}\n" for name, value in block.items() if isinstance(value, float))
    _write(args.output, _curve_csv(curve, comments))
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
        _write(args.output, _json({"columns": header, "rows": rows}))
    else:
        _write(args.output, _csv(header, rows))
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
    _write(args.output, (line + "\n" for line in lines))
    return EXIT_OK


if __name__ == "__main__":
    entrypoint()
