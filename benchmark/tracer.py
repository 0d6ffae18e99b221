"""Per-layer timing from outside the library.

`Tracer` wraps every public function of the layer modules (params, engine,
dynamics, analysis) and records one span per call: name, start, end, parent
and, for a few functions, a work count taken from the arguments.  Spans stay
in memory.  The wrapper replaces the function under every name a caller
looks it up by: the attribute of each `becqubit.*` submodule bound to that
function (`analysis.model_from_config` as well as
`params.model_from_config`).  The package's re-exports (`becqubit.rate`)
are left alone, since no library code calls through them.  Leaving the
context restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "becqubit"
LAYERS = ("params", "engine", "dynamics", "analysis")

# function -> (argument, how to count work from it)
WORK_ARGUMENTS = {
    "engine.build_rate_trace": ("n_points", int),
    "engine.angular_kernel": ("x", np.size),
}


@dataclass(frozen=True)
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int | None  # index of the calling span, None for a call from outside
    work: int = 0


def public_functions(module) -> dict:
    """Public functions defined in the module, by attribute name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Context manager that records spans of calls into the layer modules."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """fn with a span recorded around every call."""
        work = None
        if name in WORK_ARGUMENTS:
            arg, count = WORK_ARGUMENTS[name]
            signature = inspect.signature(fn)

            def work(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return int(count(bound.arguments[arg]))

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, work(args, kwargs) if work else 0)

        return traced

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for modname, module in sorted(sys.modules.items()):
            if not modname.startswith(PACKAGE + ".") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, kid.end)
        out.append(span.end - span.start - covered)
    return out


def function_stats(spans: list[Span]) -> dict[str, dict]:
    """calls, total_s, self_s and work per function name.

    total_s counts a recursive call once, at its outermost span.
    """
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = stats.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["work"] += span.work
        if not _has_ancestor_named(spans, span, span.name):
            entry["total_s"] += span.end - span.start
    return stats


def _has_ancestor_named(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
