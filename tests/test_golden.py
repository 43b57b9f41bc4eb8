"""CLI outputs compared with the golden files under tests/golden/.

Each golden is declared once, as a line of tests/golden/cases.txt: its file name, then the argv after
`cslbounds`, with paths relative to the repository root. Refactors must reproduce every golden byte for
byte, to stdout and through --output.

A golden may change only in a change that re-captures it with the loop in the header of cases.txt. That
change lists every number that moved with its distance in ulp from the mpmath oracle (tests/test_oracle.py)
before and after, and no number may move farther from the oracle.
"""

from pathlib import Path

import pytest

import cslbounds.cli as cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# file name -> argv, from each line of the manifest that is not a comment
CASES = {
    name: argv
    for name, *argv in (
        line.split() for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    )
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(ROOT)   # where the manifest's paths start
    code = cli.main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    # --output writes through a file, not stdout; the bytes must be the same
    target = tmp_path / name
    assert cli.main([*CASES[name], "--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == (GOLDEN / name).read_bytes()
