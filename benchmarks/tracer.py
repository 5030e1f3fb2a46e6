"""Per-layer tracing of rqpd from outside the program.

:func:`install` wraps the public functions of the five rqpd modules
(``qmat``, ``game_core``, ``relativity``, ``analysis``, ``cli``) in
spans and rebinds every name that refers to them, including the copies
other modules made with ``from .x import y``.  ``GameInstance``,
``KVector`` and ``JointProbabilities.from_amplitudes`` are wrapped at
the class.  Spans are aggregated in memory per name: a call count and
self time, which is the span's duration minus the time its child spans
cover.

Run as a script, it executes one traced CLI invocation::

    PYTHONPATH=src python3 benchmarks/tracer.py thresholds --grid-n 3 --numeric

The CLI's stdout is left untouched; the aggregates are written to
stderr as a last line that starts with ``TRACE_PREFIX``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("qmat", "game_core", "relativity", "analysis", "cli")
TRACE_PREFIX = "rqpd-bench-trace "

# Counted under this span: profile_table calls made by the bisection oracle.
_NUMERIC = "analysis.thresholds_numeric"
_TABLE = "analysis.profile_table"


class Tracer:
    """In-memory span aggregates: calls and self seconds per span name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tables_under_numeric = 0
        # One child-time accumulator per open span.
        self._stack: list[float] = []

    def span(self, name, fn):
        """``fn`` wrapped in a span; ``name`` is a string or a function of the call's args."""
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = fixed or name(*args, **kwargs)
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def numeric_span(self, fn):
        """The bisection oracle's span, also counting the profile tables it evaluates."""
        inner = self.span(_NUMERIC, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls[_TABLE]
            try:
                return inner(*args, **kwargs)
            finally:
                self.tables_under_numeric += self.calls[_TABLE] - before

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "tables_under_numeric": self.tables_under_numeric,
        }


def _coefficient_map_name(g, *args, **kwargs) -> str:
    return f"relativity.coefficient_map.{g.backend.value}"


def install(tracer: Tracer) -> None:
    """Wrap every public rqpd function and rebind each name that refers to it."""
    modules = {short: importlib.import_module(f"rqpd.{short}") for short in MODULES}

    wrapped = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            if f"{short}.{name}" == _NUMERIC:
                wrapped[obj] = tracer.numeric_span(obj)
            elif f"{short}.{name}" == "relativity.coefficient_map":
                wrapped[obj] = tracer.span(_coefficient_map_name, obj)
            else:
                wrapped[obj] = tracer.span(f"{short}.{name}", obj)

    # A missed binding would make counts come out short without any error,
    # so every loaded rqpd module is searched, not only the five above.
    loaded = [m for key, m in sys.modules.items() if key == "rqpd" or key.startswith("rqpd.")]
    for module in loaded:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])

    relativity, game_core = modules["relativity"], modules["game_core"]
    cls = relativity.GameInstance
    cls.__init__ = tracer.span("relativity.GameInstance", cls.__init__)
    cls = game_core.KVector
    cls.__init__ = tracer.span("game_core.KVector", cls.__init__)
    cls = game_core.JointProbabilities
    cls.from_amplitudes = classmethod(
        tracer.span("game_core.JointProbabilities.from_amplitudes",
                    cls.__dict__["from_amplitudes"].__func__)
    )


def _main(argv: list[str]) -> int:
    import rqpd.cli

    tracer = Tracer()
    install(tracer)
    try:
        code = rqpd.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
