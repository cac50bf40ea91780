"""In-memory spans and counts, recorded by wrappers the benchmark installs.

The program under test carries no instrumentation of its own, so the
traced run replaces its public entry points with thin wrappers for the
duration of one pass and puts the originals back afterwards.  A wrapper
opens a span (name, start, end, parent) around the call and may add to
named counts from the call's arguments and result.  Spans stay in memory
until the benchmark writes them out at the end.

A layer's *self time* is the duration of its spans minus the part of
each span that its direct child spans cover; its *total time* includes
the children.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in the recorder's list, -1 at top level
    parent: int


class Recorder:
    """Spans, counts and gauges of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close in the order they opened")

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open right now?"""
        return any(self.spans[i].name == name for i in self._stack)

    def as_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def _covered(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus what direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        own = span.end - span.start - _covered(
            children.get(i, ()), span.start, span.end
        )
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def total_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration, children included."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
    return out


def spanned(
    recorder: Recorder,
    name: str | Callable[[tuple, dict], str] | None,
    after: Callable[[Recorder, tuple, dict, object], None] | None = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: a span named ``name`` around each call.

    ``name`` may be a function of the call's arguments, or None for a
    wrapper that only counts.  ``after(recorder, args, kwargs, result)``
    runs once the call has returned, outside the span.
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name(args, kwargs) if callable(name) else name
                index = recorder.open(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder.close(index)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        return wrapper

    return make


class Patches:
    """Reversible replacement of functions and methods.

    A module-level function is replaced in *every* loaded module that
    holds it under some name (``from x import f`` copies the reference
    into the importing module), so calls from anywhere in the program
    reach the wrapper.  :meth:`restore` puts every original back.
    """

    def __init__(self, module_prefixes: tuple[str, ...]):
        self.module_prefixes = module_prefixes
        self._undo: list[tuple[object, str, object]] = []

    def _holders(self):
        for name, module in list(sys.modules.items()):
            if module is None:
                continue
            if any(
                name == p or name.startswith(p + ".")
                for p in self.module_prefixes
            ):
                yield module

    def function(self, module, name: str, make: Callable) -> None:
        original = getattr(module, name)
        wrapper = make(original)
        for holder in self._holders():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def method(self, cls: type, name: str, make: Callable) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)


class GcWatch:
    """Counts collections and their pauses through ``gc.callbacks``."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = self.recorder.clock()
        else:
            self.recorder.count("gc.collections")
            self.recorder.count(
                "gc.pause_s", self.recorder.clock() - self._started
            )

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
