"""CLI outputs compared with fixtures under tests/golden/.

Each fixture is the output of one CASES entry, written by running the
entry's argv with `--output tests/golden/<name>`. Refactors must reproduce
them byte for byte; spectrum values are the one exception and are compared
numerically at relative 1e-10.
"""

import csv
import io
import json
from pathlib import Path

import pytest

import cslbounds.cli as cli

GOLDEN = Path(__file__).parent / "golden"
GN_CONFIG = str(GOLDEN / "config_gn05.json")   # {"collapse": {"g_n": 0.5}}
HULTHEN_PREDICT = ("--config", GN_CONFIG, "--model", "hulthen", "--predict")
SPECTRUM_RTOL = 1e-10

CASES = {
    "analyze_default.txt": ("analyze",),
    "analyze_default.csv": ("analyze", "--format", "csv"),
    "analyze_default.json": ("analyze", "--format", "structured"),
    "analyze_hulthen_predict.txt": ("analyze", *HULTHEN_PREDICT),
    "analyze_hulthen_predict.csv": ("analyze", *HULTHEN_PREDICT, "--format", "csv"),
    "analyze_hulthen_predict.json": ("analyze", *HULTHEN_PREDICT, "--format", "structured"),
    "scan_default.csv": ("scan",),
    "scan_default.json": ("scan", "--format", "structured"),
    "constants.txt": ("constants",),
}
SPECTRUM_CASES = {
    "spectrum_density.csv": ("spectrum", "--quantity", "density"),
    "spectrum_rate.json": ("spectrum", "--quantity", "rate", "--config", GN_CONFIG, "--format", "structured"),
}


def _run(capsys, argv) -> str:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


def _table(name: str, text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a spectrum output, cells kept as their printed strings."""
    if name.endswith(".json"):
        data = json.loads(text)
        return data["columns"], [[repr(cell) for cell in row] for row in data["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(capsys, name):
    assert _run(capsys, CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_spectrum_matches_golden_values(capsys, name):
    header, rows = _table(name, _run(capsys, SPECTRUM_CASES[name]))
    golden_header, golden_rows = _table(name, (GOLDEN / name).read_text(encoding="utf-8"))
    assert header == golden_header
    assert [row[0] for row in rows] == [row[0] for row in golden_rows]
    values = [float(row[1]) for row in rows]
    assert values == pytest.approx([float(row[1]) for row in golden_rows], rel=SPECTRUM_RTOL, abs=0.0)
