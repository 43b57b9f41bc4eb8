"""Child processes the benchmark starts, with the package's src directory on PYTHONPATH.

    python bench/child.py probe WORKLOAD SEED DIR
        One set-up of a workload: interpreter start, `import cslbounds.cli`,
        and generation of the workload's inputs into DIR. Prints one JSON
        line with perf_counter timestamps (the clock is system-wide, so the
        parent can subtract its own spawn time).

    python bench/child.py trace STATS_PATH CLI_ARG...
        One traced cold CLI run: times `import cslbounds.cli`, then wraps the
        package's public functions and runs cli.main(CLI_ARG...). Writes the
        import timings and span totals to STATS_PATH and exits with main's
        exit code; the CLI's output goes to stdout as usual.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def import_package() -> dict:
    before = len(sys.modules)
    import cslbounds.cli  # noqa: F401

    return {
        "t_start": T_START,
        "t_imported": time.perf_counter(),
        "modules_loaded": len(sys.modules) - before,
        "scipy_loaded": int("scipy" in sys.modules),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    info = import_package()
    if mode == "probe":
        import inputs

        workload, seed, directory = argv[1], int(argv[2]), argv[3]
        inputs.prepare(workload, seed, directory)
        info["t_ready"] = time.perf_counter()
        print(json.dumps(info), flush=True)
        return 0
    if mode == "trace":
        import cslbounds.cli
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = cslbounds.cli.main(argv[2:])
        finally:
            tracer.uninstall()
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump({"import": info, "stats": tracer.snapshot()}, fh)
        return code
    sys.stderr.write(f"unknown mode {mode!r}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
