"""CLI outputs compared with fixtures under tests/golden/.

Each fixture is the output of one CASES entry, written by running the
entry's argv with `--output tests/golden/<name>`. Refactors must reproduce
them byte for byte.
"""

from pathlib import Path

import pytest

import cslbounds.cli as cli

GOLDEN = Path(__file__).parent / "golden"
GN_CONFIG = str(GOLDEN / "config_gn05.json")   # {"collapse": {"g_n": 0.5}}
HULTHEN_PREDICT = ("--config", GN_CONFIG, "--model", "hulthen", "--predict")

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
    "spectrum_density.csv": ("spectrum", "--quantity", "density"),
    "spectrum_density_hulthen.csv": ("spectrum", "--quantity", "density", "--model", "hulthen"),
    "spectrum_rate.json": ("spectrum", "--quantity", "rate", "--config", GN_CONFIG, "--format", "structured"),
    "spectrum_rate_hulthen.csv": ("spectrum", "--quantity", "rate", "--model", "hulthen", "--config", GN_CONFIG),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(capsys, tmp_path, name):
    code = cli.main(list(CASES[name]))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    # --output writes through a file, not stdout; the bytes must be the same
    target = tmp_path / name
    assert cli.main([*CASES[name], "--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == (GOLDEN / name).read_bytes()
