"""Benchmark of the cslbounds package, driven from outside through its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's src/ directory. Each run is one process, a closed loop with one
client and no threads: an op is a fixed sequence of CLI calls, its outputs
are checked against closed forms (bench/oracle.py), and the next op starts
when the previous one is done. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from
spans around every public function of the package (bench/tracer.py). The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 7            # set-ups per run, spread over its measured stretch; setup_s is their median
CHILD_TIMEOUT_S = 120

# (argv after `cslbounds`, check of the call's stdout returning a list of problems)
Call = tuple[list[str], Callable[[str], list[str]]]


def _cold_cli_calls(i: int, pool: list) -> list[Call]:
    cfg, path = pool[i % len(pool)]
    kind, fmt = inputs.KINDS[i % 2], inputs.FORMATS[i % 3]
    argv = ["analyze", "--config", path, "--format", fmt, "--model", kind, "--predict"]
    return [(argv, functools.partial(oracle.check_analyze, cfg, kind, fmt))]


def _scan_spectrum_calls(i: int, pool: list) -> list[Call]:
    # consecutive ops share a config, so every config's spectra are seen with both quantities
    cfg, path = pool[(i // 2) % len(pool)]
    quantity, fmt = (("density", "csv"), ("rate", "structured"))[i % 2]
    scans = [
        (["scan", "--config", path, "--format", f], functools.partial(oracle.check_scan, cfg, cfg["model"]["kind"], f))
        for f in ("csv", "structured")
    ]
    spectra = [
        (
            ["spectrum", "--config", path, "--model", kind, "--quantity", quantity, "--format", fmt],
            functools.partial(oracle.check_spectrum, cfg, kind, quantity, fmt),
        )
        for kind in inputs.KINDS
    ]
    return scans + spectra


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int, list], list[Call]]
    items_per_op: int       # units of work one op completes, for items_per_s
    cold: bool              # each call is a fresh `python -m cslbounds.cli` process
    tail_pct: float         # highest percentile op_ms.tail may report (see _tail)
    trace_ops: int          # ops whose span counts the traced run reports


WORKLOADS = {
    "cold_cli": Workload(
        calls=_cold_cli_calls,
        items_per_op=1,
        cold=True,
        tail_pct=80.0,
        trace_ops=6,
    ),
    "scan_spectrum": Workload(
        calls=_scan_spectrum_calls,
        items_per_op=2 * inputs.DENSE_SCAN_POINTS + 2 * oracle.K_GRID_POINTS,
        cold=False,
        tail_pct=85.0,
        trace_ops=2,
    ),
}

# Traced functions and the per-layer metrics reported for each.
SPAN_METRICS = {
    "cli.main": ("calls", "self_ms"),
    "config.load_config": ("self_ms",),
    "config.build_model": ("self_ms",),
    "deuteron.mean_square_radius": ("calls", "self_ms"),
    "deuteron.spectrum_density": ("calls", "self_ms"),
    "deuteron.dipole_radial_integral": ("calls", "self_ms"),
    "quadrature.integrate_radial": ("calls", "evals", "self_ms"),
    "quadrature.integrate_fourier": ("calls", "evals", "self_ms"),
    "rates.count_coefficient": ("calls", "self_ms"),
    "rates.deuteron_spectrum": ("calls", "self_ms"),
    "rates.expected_count": ("calls", "self_ms"),
    "limits.run_full_analysis": ("calls", "self_ms"),
    "limits.scan_exclusion": ("calls", "self_ms"),
    "limits.neutron_coupling_bound": ("calls", "self_ms"),
    "limits.electron_coupling_bound": ("calls",),
    "limits.net_csl_counts": ("calls",),
}
UNITS = {"calls": "count/op", "evals": "count/op", "errors": "count/op", "self_ms": "ms/op"}


@dataclass
class Phase:
    """Ops of one stretch of a run."""

    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0

    def items_per_s(self, w: Workload) -> float:
        return w.items_per_op * len(self.op_s) / sum(self.op_s)


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    import cslbounds.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cslbounds.cli.main(argv)
        except Exception:
            return -1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), ""


def run_cold(prefix: list[str], argv: list[str]) -> tuple[int, str, str]:
    try:
        proc = subprocess.run(
            [*prefix, *argv], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, "", f"timed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def run_op(w: Workload, i: int, pool: list, execute, phase: Phase) -> None:
    """One op: its calls are timed together; their outputs are checked afterwards."""
    calls = w.calls(i, pool)
    start = time.perf_counter()
    results = [execute(argv) for argv, _ in calls]
    phase.op_s.append(time.perf_counter() - start)
    problems = []
    for (argv, check), (code, out, err) in zip(calls, results):
        phase.output_bytes += len(out.encode())
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-500:]}")
        else:
            problems += check(out)
    phase.attempted += 1
    if problems:
        phase.failed += 1
        sys.stderr.write(f"op {i} failed ({' '.join(calls[0][0])}):\n  " + "\n  ".join(problems[:5]) + "\n")


def run_for(w: Workload, pool: list, execute, seconds: float, phase: Phase, first: int = 0) -> int:
    """Run ops first, first+1, ... until seconds have passed (at least one op); returns the next index."""
    end = time.perf_counter() + seconds
    i = first
    while i == first or time.perf_counter() < end:
        run_op(w, i, pool, execute, phase)
        i += 1
    return i


def probe(workload: str, seed: int, directory: str) -> dict:
    """One set-up in a fresh process; its timestamps share this process's perf_counter clock.
    Also times reference_ms() right after it."""
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "probe", workload, str(seed), directory],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return dict(json.loads(proc.stdout), t_spawn=t_spawn, ref_ms=reference_ms())


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop. It does not depend on the package, so a
    run whose figures are slow together with this one was taken in a slow host phase."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def measure(w: Workload, pool: list, execute, seconds: float, phase: Phase, setup: Callable[[], dict]) -> list[dict]:
    """Run ops for `seconds` in SETUP_PROBES equal stretches with one set-up after each
    (outside the op times), so the set-ups sample the whole run, not one moment of it.
    A stretch that ran over its share shortens the next one."""
    setups, i, spent = [], 0, 0.0
    for k in range(1, SETUP_PROBES + 1):
        start = time.perf_counter()
        i = run_for(w, pool, execute, k * seconds / SETUP_PROBES - spent, phase, first=i)
        spent += time.perf_counter() - start
        setups.append(setup())
    return setups


def _tail(sorted_ms: list[float], highest: float) -> tuple[float, float]:
    """(percentile, value) by nearest rank: percentile `highest`, or, when fewer than
    ten samples lie beyond it, the highest percentile that has ten beyond it (the
    eleventh-largest sample); the maximum when there are fewer than eleven samples.
    The per-workload ceiling keeps the percentile the same across runs and commits
    of different speed, and a run a few ops short of it moves it only a little."""
    n = len(sorted_ms)
    if n <= 10:
        return 100.0, sorted_ms[-1]
    rank = max(1, math.ceil(highest / 100.0 * n))
    if n - rank >= 10:
        return highest, sorted_ms[rank - 1]
    return 100.0 * (n - 10) / n, sorted_ms[n - 11]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Workload, phase: Phase, setups: list[dict], peak_rss_kb: int, notes: list[str]) -> dict:
    op_ms = sorted(s * 1e3 for s in phase.op_s)
    pct, tail = _tail(op_ms, w.tail_pct)
    notes.append(f"op_ms.tail is p{pct:.4g} of {len(op_ms)} ops ({sum(x > tail for x in op_ms)} beyond)")
    notes.append(f"setup_s is the median of {len(setups)} set-ups")
    # printed, not reported: a run's median and mean follow the share of it the
    # host spent in its slow phase (bench/README.md, "Why these metrics")
    notes.append(f"op_ms.p50 {statistics.median(op_ms):.6g} ms, items_per_s {phase.items_per_s(w):.6g} 1/s")
    return {
        "setup_s": _metric(statistics.median(s["t_ready"] - s["t_spawn"] for s in setups), "s"),
        "op_ms.tail": _metric(tail, "ms"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(counts: dict, counted_ops: int, times: dict, timed_ops: int, output_bytes: int,
              imports: list[dict], overhead_ratio: float) -> dict:
    """counts and times are tracer snapshots: counts after the first counted_ops
    traced ops, times after all timed_ops of them. Every value is per op."""

    def per_op(kind: str, keep: Callable[[str], bool]) -> dict:
        snapshot, ops, field_ = (times, timed_ops, "self_s") if kind == "self_ms" else (counts, counted_ops, kind)
        total = sum(stat[field_] for name, stat in snapshot.items() if keep(name))
        return _metric(total * (1e3 if kind == "self_ms" else 1) / ops, UNITS[kind])

    metrics = {
        "import.interpreter_ms": _metric(statistics.median((s["t_start"] - s["t_spawn"]) * 1e3 for s in imports), "ms"),
        "import.cslbounds_ms": _metric(statistics.median((s["t_imported"] - s["t_start"]) * 1e3 for s in imports), "ms"),
        "import.modules_loaded": _metric(statistics.median(s["modules_loaded"] for s in imports), "count"),
        "import.scipy_loaded": _metric(max(s["scipy_loaded"] for s in imports), "count"),
        "cli.output_bytes": _metric(output_bytes / counted_ops, "B/op"),
    }
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            metrics[f"{name}.{kind}"] = per_op(kind, name.__eq__)
    metrics["quadrature.errors"] = per_op("errors", lambda n: n.startswith("quadrature."))
    metrics["uncertainty.calls"] = per_op("calls", lambda n: n.startswith("uncertainty."))
    metrics["uncertainty.self_ms"] = per_op("self_ms", lambda n: n.startswith("uncertainty."))
    metrics["trace.overhead_ratio"] = _metric(overhead_ratio, "ratio")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, tmp: str) -> tuple[dict, list[str]]:
    w = WORKLOADS[name]
    pool = inputs.prepare(name, seed, tmp)
    plain = functools.partial(run_cold, [sys.executable, "-m", "cslbounds.cli"]) if w.cold else run_in_process
    warmup = Phase()
    run_op(w, 0, pool, plain, warmup)   # untimed: fills caches and compiles bytecode
    setup = functools.partial(probe, name, seed, os.path.join(tmp, "probe"))
    notes: list[str] = []
    if not trace:
        measured = Phase()
        setups = measure(w, pool, plain, seconds, measured, setup)
        who = resource.RUSAGE_CHILDREN if w.cold else resource.RUSAGE_SELF
        metrics = end_to_end(w, measured, setups, resource.getrusage(who).ru_maxrss, notes)
        phases = (warmup, measured)
    else:
        untraced = Phase()
        setups = measure(w, pool, plain, seconds / 2, untraced, setup)
        tracer, traced, imports = Tracer(), Phase(), []
        if w.cold:
            stats_path = os.path.join(tmp, "spans.json")

            def execute(argv):
                t_spawn = time.perf_counter()
                result = run_cold([sys.executable, str(BENCH / "child.py"), "trace", stats_path], argv)
                if os.path.exists(stats_path):   # absent when the child failed before main()
                    with open(stats_path, encoding="utf-8") as fh:
                        child = json.load(fh)
                    os.remove(stats_path)
                    tracer.merge(child["stats"])
                    imports.append(dict(child["import"], t_spawn=t_spawn))
                return result
        else:
            execute = plain
            tracer.install()
        start = time.perf_counter()
        try:
            for i in range(w.trace_ops):
                run_op(w, i, pool, execute, traced)
            counts, count_bytes = tracer.snapshot(), traced.output_bytes
            run_for(w, pool, execute, seconds / 2 - (time.perf_counter() - start), traced, first=w.trace_ops)
        finally:
            tracer.uninstall()
        metrics = per_layer(
            counts, w.trace_ops, tracer.snapshot(), len(traced.op_s), count_bytes,
            setups + imports, traced.items_per_s(w) / untraced.items_per_s(w),
        )
        notes.append(f"counts over ops 0..{w.trace_ops - 1} of the traced phase; self times over all {len(traced.op_s)} traced ops")
        phases = (warmup, untraced, traced)
    refs = [s["ref_ms"] for s in setups]
    notes.append(f"host reference loop {statistics.median(refs):.2f} ms (median; {min(refs):.2f}-{max(refs):.2f} over {len(refs)})")
    result = {
        "correct": all(p.failed == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured stretch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cslbounds" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'cslbounds'}; run inside a checkout of the repository\n")
        return 2
    # the package is imported only where it is used (run_in_process, the tracer): the
    # cold workload's CLI children report a peak RSS no lower than this process's, which
    # must stay below theirs
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        os.mkdir(os.path.join(tmp, "probe"))
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for note in notes:
        print(f"  {note}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
