"""Per-layer spans recorded from outside the program under test.

The benchmark wraps public functions of each layer (class attributes such
as ``CrowdLearnSystem.run_cycle`` and module attributes such as
``repro.eval.runner.build_dataset``) before the workload starts, and puts
the originals back when it ends, so no file of the program changes.  Each
call of a wrapped function becomes one span: name, start, end, the
innermost enclosing span (its parent) and a trace id naming the
deployment or event it served.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    ``target`` is ``"module:Class"`` for a method or ``"module"`` for a
    module attribute.  ``size`` maps ``(args, result)`` to a number summed
    per span name (bytes written, responses received, ...), which
    ``size_name`` names.  ``trace`` maps ``args`` to a trace id suffix for
    this span and its children.
    """

    name: str
    target: str
    attr: str
    size: Callable[[tuple, Any], int] | None = None
    size_name: str = "bytes"
    trace: Callable[[tuple], str] | None = None

    def owner(self) -> Any:
        module, _, cls = self.target.partition(":")
        owner = importlib.import_module(module)
        return getattr(owner, cls) if cls else owner


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    trace: str
    start: float
    end: float
    size: int


class Tracer:
    """Installs span wrappers and keeps the spans they record.

    ``prefix`` is prepended to every span name recorded while it is set
    (``"setup."`` while the world is built); ``trace_id`` names the unit
    of work that top-level spans belong to.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.prefix = ""
        self.trace_id = ""
        self._ids = itertools.count()
        self._stack: list[tuple[int, str]] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if layer.trace is not None:
                trace = f"{tracer.trace_id}/{layer.trace(args)}"
            else:
                trace = parent[1] if parent is not None else tracer.trace_id
            span_id = next(tracer._ids)
            name = tracer.prefix + layer.name
            tracer._stack.append((span_id, trace))
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                size = layer.size(args, result) if ok and layer.size else 0
                tracer.spans.append(Span(
                    span_id, None if parent is None else parent[0],
                    name, trace, start, end, size,
                ))

        return traced

    def install(self, layers: Iterable[Layer]) -> None:
        """Replace each layer's function by its traced wrapper."""
        for layer in layers:
            owner = layer.owner()
            original = vars(owner).get(layer.attr)
            if not inspect.isfunction(original):
                self.uninstall()
                raise TypeError(
                    f"{layer.target}.{layer.attr} is not a plain function"
                )
            setattr(owner, layer.attr, self.wrap(layer, original))
            self._installed.append((owner, layer.attr, original))

    def uninstall(self) -> None:
        """Put every original function back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """Write one JSON object per span, times relative to the first."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "trace": s.trace, "start": s.start - origin,
                    "end": s.end - origin, "size": s.size,
                }) + "\n")


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the part its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time, self time and summed size.

    Busy time counts a span only when no enclosing span has the same name,
    so a function that calls itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0}
    )
    for s in spans:
        entry = stats[s.name]
        entry["calls"] += 1
        entry["size"] += s.size
        entry["self_s"] += self_time(s, children.get(s.id, ()))
        ancestor = by_id.get(s.parent) if s.parent is not None else None
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            entry["busy_s"] += s.end - s.start
    return dict(stats)


def wrapper_cost_seconds() -> float:
    """Measured cost one span wrapper adds to a call, in seconds."""
    calls = 20000

    def noop() -> None:
        return None

    tracer = Tracer()
    traced = tracer.wrap(Layer("calibrate", "builtins", "noop"), noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    raw = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    return max(wrapped - raw, 0.0) / calls
