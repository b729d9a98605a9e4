"""In-memory span recording and self-time arithmetic.

A span is ``(id, name, start, end, parent, op, n, keys)``: ``parent`` is
the id of the span that caused it (None at a layer entry), ``op`` the id
of the benchmark operation it belongs to (None for batch spans shared by
many operations), ``n`` the work items it covered and ``keys`` the
request identities a batch span served, so a caller's span can be matched
to the batch that answered it.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple, Sequence


class SpanRecord(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    n: int
    keys: tuple | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while :attr:`enabled`; a no-op otherwise.

    Synchronous spans (:meth:`span`) nest through a per-thread stack, so a
    span opened inside another on the same thread records it as parent.
    Spans on the event loop use :meth:`record` with an explicit parent,
    because interleaved tasks share one thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        op: str | None = None,
        n: int = 1,
        keys: tuple | None = None,
        span_id: int | None = None,
    ) -> None:
        if self.enabled:
            self.spans.append(
                SpanRecord(
                    span_id if span_id is not None else self.new_id(),
                    name, start, end, parent, op, n, keys,
                )
            )

    @contextmanager
    def span(
        self, name: str, *, n: int = 1, keys: tuple | None = None
    ) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = self.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.record(
                name, start, end, parent=parent, n=n, keys=keys, span_id=span_id
            )


def write_spans(spans: Sequence[SpanRecord], path: str) -> None:
    """Dump spans as gzipped JSON lines, times in µs from the first start."""
    origin = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="ascii") as handle:
        for s in spans:
            handle.write(
                json.dumps(
                    {
                        "id": s.id,
                        "name": s.name,
                        "start_us": round((s.start - origin) * 1e6, 1),
                        "end_us": round((s.end - origin) * 1e6, 1),
                        "parent": s.parent,
                        "op": s.op,
                        "n": s.n,
                    }
                )
                + "\n"
            )


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Sequence[tuple[float, float]]
) -> float:
    """``end - start`` minus the part of that interval the children cover.

    Children may overlap each other and may stick out of the parent; each
    instant of the parent is subtracted at most once.
    """
    clipped = [
        (max(start, c_start), min(end, c_end))
        for c_start, c_end in children
        if c_end > start and c_start < end
    ]
    return (end - start) - union_length(clipped)
