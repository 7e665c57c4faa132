"""In-memory span recording by wrapping the program's public entry points.

The benchmark never edits the program: in a traced run it replaces
selected methods on the objects it built (or, for calls made on objects
the program creates internally, on their class) with thin wrappers that
record one span per call.  A span holds its name, start, end, parent
span and the id of the train step or serving batch it belongs to.
Spans stay in memory and are written out once, at the end of the run.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans; children of one parent may
overlap in time (the router's shard fan-out runs on pool threads), so
the covered part is the union of the child intervals.
"""

from __future__ import annotations

import collections
import json
import threading
import time

import numpy as np

_MISSING = object()


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid")

    def __init__(self, sid, name, start, parent, rid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid


class SpanRecorder:
    """Collects spans from every thread; restores patched methods on close."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        # Parent for spans opened on helper threads (the router's shard
        # fan-out pool), which have no span stack of their own.
        self._fanout: Span | None = None

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._fanout
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        rid = parent.rid if parent is not None else sid
        span = Span(sid, name, time.perf_counter(),
                    parent.sid if parent is not None else None, rid)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn, *args, fanout: bool = False, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self._open(name)
        if fanout:
            self._fanout = span
        try:
            return fn(*args, **kwargs)
        finally:
            if fanout:
                self._fanout = None
            self._close(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, owner, attr: str, name: str, *, count=None,
             fanout: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an instance (the wrapper shadows the class method
        for that object only) or a class (every instance is wrapped).
        ``count(args, kwargs, result)`` may return a number to add to
        the counter of the same name.
        """
        # An attribute the owner itself holds (a class's or a module's
        # function) is put back on close; a patch that only shadows an
        # inherited or class attribute is deleted again.
        original = getattr(owner, "__dict__", {}).get(attr, _MISSING)
        target = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            result = recorder.call(name, target, *args, fanout=fanout,
                                   **kwargs)
            if count is not None:
                recorder.count(name, count(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times_ms(self, root: str | None = None
                      ) -> dict[str, list[float]]:
        """Per span name, the self time (ms) of each recorded span; with
        ``root``, only of spans inside a root span of that name."""
        roots = {s.sid for s in self.spans
                 if s.name == root and s.parent is None}
        children: dict[int, list[Span]] = collections.defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[str, list[float]] = collections.defaultdict(list)
        for span in self.spans:
            if root is not None and span.rid not in roots:
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.name].append(1e3 * (span.end - span.start - covered))
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (s.end - s.start) for s in self.spans if s.name == name]

    def by_parent(self, name: str) -> dict[int, list[float]]:
        """Durations (ms) of spans called ``name``, grouped by parent."""
        out: dict[int, list[float]] = collections.defaultdict(list)
        for s in self.spans:
            if s.name == name:
                out[s.parent].append(1e3 * (s.end - s.start))
        return out

    def dump(self, path) -> None:
        """Write every span (times in ms from the first span) as JSON."""
        origin = min((s.start for s in self.spans), default=0.0)
        payload = {
            "fields": ["id", "name", "start_ms", "end_ms", "parent", "rid"],
            "spans": [[s.sid, s.name, round(1e3 * (s.start - origin), 4),
                       round(1e3 * (s.end - origin), 4), s.parent, s.rid]
                      for s in sorted(self.spans, key=lambda s: s.start)],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
