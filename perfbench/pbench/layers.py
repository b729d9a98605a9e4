"""Benchmark-side wrappers that time the public calls into each layer.

Nothing here changes what the program computes: every wrapper forwards to
the real object and records a span around the call. The layers, named
after the package's modules:

* ``serving.server`` — :class:`TracedBackend`, a proxy handed to
  :class:`~repro.serving.http.AlignmentHTTPServer` (and so to its
  :class:`~repro.serving.jobs.JobManager`), times each ``align`` /
  ``map_read`` submission from the front's point of view: queueing, the
  flush window and the compute that answers it. The op id comes from the
  request's trace id, which the front takes from ``X-Request-ID``.
* ``mapping`` — :class:`TracedMapper` times ``map_reads_batch`` (the call
  the server makes per flush), :class:`TimedFilter` the pre-alignment
  filter and :func:`timed_aligners` the candidate aligner.
* ``engine`` — :class:`TimedNativeEngine` times the native engine's batch
  scan (the filter's kernel) and batch align.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Sequence

from repro.engine.native import NativeEngine
from repro.mapping.pipeline import ReadMapper, make_genasm_mapper
from repro.serving.observability import current_trace

from pbench.spans import Recorder


class TimedNativeEngine(NativeEngine):
    """The ``"native"`` engine with its batch entry points wrapped in spans."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def scan_batch(self, pairs: Sequence, *args: Any, **kwargs: Any) -> list:
        pairs = list(pairs)
        with self._recorder.span("engine.scan_batch", n=len(pairs)):
            return super().scan_batch(pairs, *args, **kwargs)

    def align_batch(self, pairs: Sequence, *args: Any, **kwargs: Any) -> list:
        pairs = list(pairs)
        keys = tuple(pattern for _, pattern in pairs)
        with self._recorder.span("engine.align_batch", n=len(pairs), keys=keys):
            return super().align_batch(pairs, *args, **kwargs)


class TimedFilter:
    """Pre-alignment filter proxy timing each (batched) filter call."""

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def accepts(self, reference: str, read: str) -> bool:
        return self.accepts_batch([(reference, read)])[0]

    def accepts_batch(self, pairs: Sequence[tuple[str, str]]) -> list[bool]:
        with self._recorder.span("mapping.filter", n=len(pairs)):
            return self._inner.accepts_batch(pairs)


def timed_aligners(
    aligner: Callable, batch_aligner: Callable, recorder: Recorder
) -> tuple[Callable, Callable]:
    """Wrap a mapper's single and batch aligner slots in ``mapping.align`` spans."""

    def align(text: str, pattern: str) -> Any:
        with recorder.span("mapping.align", n=1):
            return aligner(text, pattern)

    def align_batch(pairs: Sequence[tuple[str, str]]) -> list:
        pairs = list(pairs)
        with recorder.span("mapping.align", n=len(pairs)):
            return batch_aligner(pairs)

    return align, align_batch


class TracedMapper(ReadMapper):
    """A :class:`ReadMapper` whose per-flush entry point records a span."""

    recorder: Recorder  # set by build_traced_mapper; not a dataclass field

    def map_reads_batch(self, reads: Sequence[tuple[str, str]]) -> list:
        reads = list(reads)
        keys = tuple(name for name, _ in reads)
        with self.recorder.span("mapping.batch", n=len(reads), keys=keys):
            return super().map_reads_batch(reads)


def build_traced_mapper(
    genome: Any, recorder: Recorder, **options: Any
) -> tuple[TracedMapper, float]:
    """``make_genasm_mapper(genome, engine=TimedNativeEngine, **options)``, traced.

    Returns the mapper and the seconds ``make_genasm_mapper`` took (its
    cost is ``KmerIndex.build``). The traced mapper shares the built
    mapper's genome, index, filter and aligner, with the filter and
    aligner slots wrapped.
    """
    engine = TimedNativeEngine(recorder)
    start = time.perf_counter()
    base = make_genasm_mapper(genome, engine=engine, **options)
    build_seconds = time.perf_counter() - start
    align, align_batch = timed_aligners(
        base.aligner, base.batch_aligner, recorder
    )
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    fields.update(
        prefilter=(
            TimedFilter(base.prefilter, recorder)
            if base.prefilter is not None
            else None
        ),
        aligner=align,
        batch_aligner=align_batch,
    )
    mapper = TracedMapper(**fields)
    mapper.recorder = recorder
    return mapper, build_seconds


class TracedBackend:
    """Serving-backend proxy timing every ``align`` / ``map_read`` call.

    Everything else (stats, health, capacity, shutdown, the ``mapper``
    the job fabric needs) is forwarded to the wrapped server untouched.
    """

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    async def align(self, text: str, pattern: str, **kwargs: Any) -> Any:
        return await self._timed(
            "server.align", pattern, self._inner.align(text, pattern, **kwargs)
        )

    async def map_read(self, name: str, read: str, **kwargs: Any) -> Any:
        return await self._timed(
            "server.map_read", name, self._inner.map_read(name, read, **kwargs)
        )

    async def _timed(self, span: str, key: str, call: Any) -> Any:
        trace = current_trace()
        start = time.perf_counter()
        try:
            return await call
        finally:
            self._recorder.record(
                span,
                start,
                time.perf_counter(),
                op=trace.trace_id if trace is not None else None,
                keys=(key,),
            )
