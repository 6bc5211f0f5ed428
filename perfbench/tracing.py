"""Spans recorded around calls into the program, from outside it.

A :class:`Tracer` keeps every span in memory: name, start, end, the
span that was open in the same thread when it started (its parent),
and a request id (chunk index, swarm attempt, job number).  Spans are
written out once, when the run ends.  A span name is
``<layer>.<call>``; a layer's self time is the time its spans cover
minus the part covered by their child spans.

:func:`patch` swaps a callable attribute for a timing wrapper and
returns an undo function, so a traced run measures the same code the
untraced run executes.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.monotonic


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent", "request")

    def __init__(self, ident, name, start, parent, request):
        self.ident = ident
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    def as_dict(self) -> dict:
        return {"id": self.ident, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Parent for spans opened in a thread with no open span (the
        #: service's ingest and filter threads hang off its run span).
        self.root: Optional[int] = None
        #: Request id for spans opened without one.
        self.request = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request=None) -> Span:
        stack = self._stack()
        parent = stack[-1].ident if stack else self.root
        with self._lock:
            span = Span(len(self.spans), name, clock(), parent,
                        self.request if request is None else request)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func``, with every call inside a span."""
        def traced(*args, **kwargs):
            return call(self, name, func, *args, **kwargs)
        return traced

    # -- analysis -------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [span.end - span.start for span in self.spans
                if span.name == name]

    def _span_self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return [
            (span.end - span.start) - _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.ident, ())])
            for span in self.spans
        ]

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name."""
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self._span_self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer, leaving out the benchmark's own probe
        spans (``bench.*``) and everything they called."""
        probes = set()
        for span in self.spans:
            if span.name.startswith("bench.") or span.parent in probes:
                probes.add(span.ident)
        layers: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self._span_self_times()):
            if span.ident not in probes:
                layer = span.name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def call(tracer: Optional[Tracer], name: str, func: Callable, *args,
         request=None, **kwargs):
    """``func(*args, **kwargs)``, inside a span when ``tracer`` is set."""
    if tracer is None:
        return func(*args, **kwargs)
    span = tracer.open(name, request)
    try:
        return func(*args, **kwargs)
    finally:
        tracer.close(span)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def patch(owner, attr: str, replacement_factory: Callable) -> Callable:
    """Set ``owner.attr = replacement_factory(original)``; returns undo.

    On an instance, the replacement shadows the class method; on a
    module or class, every later lookup of the name sees it.
    """
    had_own = attr in getattr(owner, "__dict__", {})
    original = getattr(owner, attr)
    setattr(owner, attr, replacement_factory(original))

    def undo() -> None:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    return undo
