"""Outside-in span tracing for the patchmix package.

The tracer wraps module-level functions from outside the program: each
call becomes a span (name, start, end, parent).  A wrapper is installed
at *every* ``patchmix.*`` module attribute bound to the wrapped function
object, because the package imports with ``from .x import y`` and a
caller such as ``workflow.patchmix`` holds its own reference.

Generator functions are never wrapped: calling one only builds the
generator, so a wrapper would time nothing.  Their work (for example
``workflow.guided_batch_composer`` and the inner ``batches`` closures of
the trainers) shows up as self time of the span that iterates them.

Spans live in flat lists and one parent stack, so the tracer assumes a
single thread; every benchmark workload runs with ``threads`` unset (1).

This module imports nothing from numpy or patchmix, so the orchestrator
and the tests can use the arithmetic helpers cheaply.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

CLOCK = time.perf_counter


class TargetMissing(LookupError):
    """A function the benchmark measures no longer exists in the program."""


@dataclass
class Tracer:
    """Spans recorded in call order; ``parents[k]`` is -1 for a root span."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=lambda: [-1])

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span.

        ``count(args, kwargs)`` (optional) adds to the counter ``name``.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(CLOCK())
            try:
                if count is not None:
                    counters[name] = counters.get(name, 0) + count(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                ends[index] = CLOCK()
                stack.pop()

        return traced


def public_functions(module) -> dict[str, Callable]:
    """Plain functions defined in ``module`` whose names do not start with ``_``."""
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
            continue
        found[attr] = obj
    return found


def install(
    targets: dict[str, Callable],
    package: str,
    wrap: Callable[[str, Callable], Callable],
) -> Callable[[], None]:
    """Replace every target at every ``package.*`` attribute bound to it.

    ``targets`` maps a name to the function object; ``wrap(name, fn)``
    builds the replacement.  Returns a function that restores the
    original bindings.  A target that no module attribute binds raises
    :class:`TargetMissing`.
    """
    by_id = {id(fn): (name, fn) for name, fn in targets.items()}
    wrappers = {key: wrap(name, fn) for key, (name, fn) in by_id.items()}
    patched: list[tuple[object, str, Callable]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and by_id[id(value)][1] is value:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))

    def uninstall() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    reached = {id(value) for _, _, value in patched}
    unreached = sorted(name for key, (name, _) in by_id.items() if key not in reached)
    if unreached:
        uninstall()
        raise TargetMissing(f"no {package} module attribute binds {unreached}")
    return uninstall


# --- arithmetic over recorded spans ----------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result is never negative.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index in range(len(starts)):
        lo, hi = starts[index], ends[index]
        covered = 0.0
        cursor = lo
        for child in sorted(children.get(index, ()), key=lambda k: starts[k]):
            a, b = max(starts[child], cursor), min(ends[child], hi)
            if b > a:
                covered += b - a
                cursor = b
        result.append((hi - lo) - covered)
    return result


def span_errors(names, starts, ends, parents) -> list[str]:
    """Spans that end before they start or reach outside their parent."""
    errors = []
    for index, parent in enumerate(parents):
        if ends[index] < starts[index]:
            errors.append(f"span {index} ({names[index]}) ends before it starts")
        if parent >= 0 and (
            starts[index] < starts[parent] or ends[index] > ends[parent]
        ):
            errors.append(
                f"span {index} ({names[index]}) reaches outside its parent "
                f"{parent} ({names[parent]})"
            )
    return errors


def phase_of(start: float, bounds: list[float]) -> int:
    """1-based phase whose [bounds[k-1], bounds[k]) holds ``start``; 0 if none."""
    for k in range(1, len(bounds)):
        if bounds[k - 1] <= start < bounds[k]:
            return k
    return 0
