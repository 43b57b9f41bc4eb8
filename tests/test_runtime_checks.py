"""ci/runtime_checks.sh run against this source tree, through real processes.

The script is what CI runs on a bare install, and where the CLI's exits are checked as a process:
every subcommand, the golden outputs to stdout and through --output, every failing run of
tests/golden/failures.txt with its exit code and stderr line, a closed pipe and a full disk. Here a
`cslbounds` shim on PATH runs `python -m cslbounds.cli` with src/ first on PYTHONPATH, so a stale golden or
exit code fails the tier-1 tests.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_checks_script_passes(tmp_path):
    bin_dir, scratch = tmp_path / "bin", tmp_path / "runner"
    bin_dir.mkdir()
    scratch.mkdir()
    shim = bin_dir / "cslbounds"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m cslbounds.cli "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        "RUNNER_TEMP": str(scratch),
    }
    result = subprocess.run(
        ["bash", str(ROOT / "ci" / "runtime_checks.sh")], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
