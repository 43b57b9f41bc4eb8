"""Per-function spans recorded from outside the package.

Tracer.install() replaces every public function of the package's modules
with a timing wrapper, both in the module that defines it and in every
module that binds it through `from .x import name` (so calls that go
through, say, limits' own binding of mean_square_radius are seen). Spans
are folded into per-name totals in memory as they close: calls, integrand
evaluations (for the quadrature entry points), exceptions, total time and
self time, which is the span's duration minus the time covered by the
spans it encloses. Names that do not exist in the traced code simply
never appear, which the benchmark reports as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import asdict, dataclass

PACKAGE = "cslbounds"

# Functions whose first argument is the integrand; its evaluations are counted.
COUNTS_EVALS = frozenset({"quadrature.integrate_radial", "quadrature.integrate_fourier"})


@dataclass
class Stat:
    calls: int = 0
    evals: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []   # per open span: time covered by its children
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])
                self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def snapshot(self) -> dict[str, dict]:
        return {name: asdict(stat) for name, stat in self.stats.items()}

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Add the totals of another process's snapshot to this tracer's."""
        for name, fields in snapshot.items():
            stat = self.stats.setdefault(name, Stat())
            for key, value in fields.items():
                setattr(stat, key, getattr(stat, key) + value)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def counted(f):
            def integrand(x):
                stat.evals += 1
                return f(x)

            return integrand

        count_evals = name in COUNTS_EVALS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_evals and args:
                args = (counted(args[0]),) + args[1:]
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children[0]

        return wrapper
