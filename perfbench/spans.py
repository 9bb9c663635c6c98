"""Span recorder, self-time arithmetic and call tracing for the benchmark.

A span is one timed interval: a name, a start, an end, the span that was
open when it began (its parent) and an item id (the utterance it works
on, inherited from the parent when the call does not name one).  Spans
are kept in memory and summarised when the run ends.

`Tracer` wraps the public functions and methods of the prosemph modules
from outside the package, so every call into a layer opens a span, and
puts the originals back when it is removed.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass

# Modules whose public functions and methods are traced.  `cli` is left
# out: the benchmark opens one span per CLI stage itself.  `errors` holds
# only exception types.
TRACED_MODULES = (
    "dsp", "prominence", "corpus", "tagset", "graph", "embeddings", "model",
    "metrics", "conditioning",
)

# Span names for methods.  PredictorModel methods are named after the
# module, since the model is the layer; other methods keep their class
# name unless listed here.
_RENAMED = {
    "model.AdamOptimizer.step": "model.adam_step",
    "embeddings.SemanticProvider.rows": "embeddings.semantic_rows",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    item: str | None


class Recorder:
    """Collects spans in memory; `begin`/`end` nest like a call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, item: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent].item
        self.spans.append(Span(name, self.clock(), math.nan, parent, item))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            a, b = max(s.start, p.start), min(s.end, p.end)
            if b > a:
                children[s.parent].append((a, b))
    return [s.end - s.start - _union_length(c) for s, c in zip(spans, children)]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: busy seconds, self seconds and call count.

    Busy time counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t["s"] += s.end - s.start
    return out


def _item_of(args) -> str | None:
    for a in args:
        for attr in ("id", "utterance_id"):
            v = getattr(a, attr, None)
            if isinstance(v, str):
                return v
    return None


def _span_name(module: str, qualname: str) -> str:
    cls, _, method = qualname.rpartition(".")
    if not cls or cls == "PredictorModel":
        return f"{module}.{method}"
    name = f"{module}.{qualname}"
    return _RENAMED.get(name, name)


def _public_callables(mod):
    """(owner, attribute, function, kind, qualname) for each public function
    and method defined in `mod`; kind is None, "classmethod" or
    "staticmethod"."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, obj, None, name
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    kind = type(member).__name__
                    yield obj, attr, member.__func__, kind, f"{name}.{attr}"
                elif inspect.isfunction(member):
                    yield obj, attr, member, None, f"{name}.{attr}"


class Tracer:
    """Opens a span around every call to a public prosemph function.

    `observers` maps a span name to a callable(args, kwargs, result) run
    after each successful call, for counts taken where the work happens.
    """

    def __init__(self, recorder: Recorder, observers=None):
        self.recorder = recorder
        self.observers = observers or {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        rec, observe = self.recorder, self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec.begin(name, _item_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"prosemph.{m}") for m in TRACED_MODULES}
        cli = importlib.import_module("prosemph.cli")
        wrapped = {}
        for short, mod in modules.items():
            for owner, attr, fn, kind, qualname in list(_public_callables(mod)):
                new = self._wrap(fn, _span_name(short, qualname))
                original = vars(owner)[attr]
                if kind == "classmethod":
                    new = classmethod(new)
                elif kind == "staticmethod":
                    new = staticmethod(new)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, new)
                if owner is mod:
                    wrapped[id(fn)] = (fn, new)
        # names bound by `from .x import f` in other modules
        for mod in (*modules.values(), cli):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
