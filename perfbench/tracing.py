"""Span tracing installed from outside the package.

Each traced callable of vnum is replaced, for the duration of a traced
pass, by a wrapper that records a span (name, start, end, parent span,
item).  The wrapper is bound at every module attribute that holds the
original object, because modules such as ``vnum.verify`` import names
like ``colon_poly`` directly, and ``Ideal`` methods are patched on the
class.  ``installed`` restores every original on exit.

Nothing here imports vnum; the specs name modules by string.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """In-memory span recorder for one single-threaded pass.

    ``spans`` holds [name, start, end, parent index or None, item key];
    ``counts`` holds the per-layer work counters.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.item: Optional[str] = None
        self._stack: list[int] = []
        self._budget_errors: list[BaseException] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx][2] = self.clock()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def note_budget_error(self, exc: BaseException) -> None:
        # one error unwinds through several wrapped frames; count it once
        if not any(e is exc for e in self._budget_errors):
            self._budget_errors.append(exc)
            self.add("algebra.budget_errors")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass(frozen=True)
class SpanSpec:
    """One traced callable: ``module.attr``, or ``module.cls.attr`` for a
    method.  ``before(tracer, args)`` runs ahead of the call and
    ``after(tracer, args, result)`` after it returns."""

    name: str
    module: str
    attr: str
    cls: Optional[str] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _function_wrapper(tracer: Tracer, spec: SpanSpec, original, budget_error):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if spec.before is not None:
            spec.before(tracer, args)
        idx = tracer.open(spec.name)
        try:
            result = original(*args, **kwargs)
        except budget_error as exc:
            tracer.note_budget_error(exc)
            raise
        finally:
            tracer.close(idx)
        if spec.after is not None:
            spec.after(tracer, args, result)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, spec: SpanSpec, original, budget_error):
    """Times each resumption of the generator as one span."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        while True:
            idx = tracer.open(spec.name)
            try:
                value = next(inner)
            except StopIteration:
                return
            except budget_error as exc:
                tracer.note_budget_error(exc)
                raise
            finally:
                tracer.close(idx)
            tracer.add(spec.name + ".graphs")
            yield value

    return wrapper


def _bindings(original, attr: str):
    """Every loaded module whose attribute ``attr`` is ``original``."""
    return [
        mod
        for mod in list(sys.modules.values())
        if mod is not None and vars(mod).get(attr) is original
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, specs, budget_error=()):
    """Patch every spec for the duration of the block, then restore."""
    patches = []
    try:
        for spec in specs:
            home = importlib.import_module(spec.module)
            if spec.cls is not None:
                owner = getattr(home, spec.cls)
                original = vars(owner)[spec.attr]
                targets = [owner]
            else:
                original = getattr(home, spec.attr)
                targets = _bindings(original, spec.attr)
            make = (
                _generator_wrapper
                if inspect.isgeneratorfunction(original)
                else _function_wrapper
            )
            wrapper = make(tracer, spec, original, budget_error)
            for target in targets:
                patches.append((target, spec.attr, original))
                setattr(target, spec.attr, wrapper)
        yield
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


def layer_metrics(tracer: Tracer, specs) -> dict[str, float]:
    """Calls and self time per span name, plus the recorded counters.

    Every spec appears, with zero calls when the pass never reached it."""
    out: dict[str, float] = {}
    for spec in specs:
        out[spec.name + ".calls"] = 0
        out[spec.name + ".self_s"] = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        out[span[0] + ".calls"] += 1
        out[span[0] + ".self_s"] += own
    out.update(tracer.counts)
    return out


def spans_by_item(tracer: Tracer) -> dict:
    """The span list grouped by item key, for writing out after a run."""
    grouped: dict = {}
    for idx, (name, start, end, parent, item) in enumerate(tracer.spans):
        grouped.setdefault(item or "", []).append([idx, name, start, end, parent])
    return grouped
