"""Spans recorded from outside the program, and the arithmetic over them.

The suite wraps the objects it hands to the middleware (stores, spec,
scheduler, cache) and records one :class:`Span` per call.  Spans are
kept in memory and written out when the run ends; nothing here touches
``src/``.

Three pieces of interval arithmetic are defined once, here:

* :func:`union_s` -- seconds covered by at least one interval;
* :func:`self_times` -- the self-time rule: a span's duration minus the
  part of its interval that its child spans cover;
* :func:`to_chrome` -- Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto) with one ``pid`` per workload and one ``tid`` per thread.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Span", "Tracer", "union_s", "self_times", "to_chrome"]


@dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    thread: str
    pass_id: int
    #: Position in ``Tracer.spans`` of the span that caused this one.
    parent: int | None
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by every wrapper of one run.

    The parent of a span is the innermost span open on the same thread;
    a span opened on a thread with nothing open (a worker or fetch-pool
    thread) hangs under the *ambient* span -- the pass, or the probe's
    own call -- that the main thread opened with ``ambient=True``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = -1
        self._ambient: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, *, ambient: bool = False, **args) -> Iterator[Span]:
        stack = self._stack()
        sp = Span(
            name, 0.0, 0.0, threading.current_thread().name, self.pass_id,
            stack[-1] if stack else self._ambient, args,
        )
        with self._lock:
            idx = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        prev_ambient = self._ambient
        if ambient:
            self._ambient = idx
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if ambient:
                self._ambient = prev_ambient

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def union_s(intervals: Iterable[tuple[float, float]]) -> float:
    """Seconds covered by at least one of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus what its children cover.

    Children are clipped to the parent's interval, and overlapping
    children (parallel sub-range GETs under one fetch) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            par = spans[sp.parent]
            children.setdefault(sp.parent, []).append(
                (max(sp.start, par.start), min(sp.end, par.end))
            )
    return [
        sp.dur - union_s(children.get(i, ())) for i, sp in enumerate(spans)
    ]


def to_chrome(spans: list[Span], *, pid: int, process_name: str) -> list[dict]:
    """Chrome trace-event dicts (complete ``"X"`` events, microseconds)."""
    tids: dict[str, int] = {}
    for sp in spans:
        tids.setdefault(sp.thread, len(tids) + 1)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": process_name}},
    ]
    events.extend(
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
         "args": {"name": thread}}
        for thread, tid in tids.items()
    )
    t0 = min((s.start for s in spans), default=0.0)
    events.extend(
        {"ph": "X", "name": sp.name, "pid": pid, "tid": tids[sp.thread],
         "ts": (sp.start - t0) * 1e6, "dur": sp.dur * 1e6,
         "args": {"pass": sp.pass_id, **sp.args}}
        for sp in spans
    )
    return events
