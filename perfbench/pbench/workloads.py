"""Workloads: inputs from a seed, the deployment, the load, the checks.

Every workload runs against one deployment: ``make_genasm_mapper`` over a
synthetic reference, an :class:`~repro.serving.server.AlignmentServer` with
its shipped batching defaults, and an
:class:`~repro.serving.http.AlignmentHTTPServer` with its shipped defaults
(tracing on, jobs on) listening on loopback TCP. The one departure from
the defaults is ``engine="native"``, passed through the public
constructors. The load is a closed loop: each of ``connections``
keep-alive connections sends its next operation only once the previous
one has completed.

A run is: generate inputs (not timed) -> set up :data:`SETUPS` times
(each timed; the last deployment is kept) -> warm up (not timed) -> measure for
``seconds`` -> stop the server -> check every output against in-process
results (not timed).
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.aligner import GenAsmAligner
from repro.mapping.pipeline import make_genasm_mapper
from repro.mapping.sam import sam_header
from repro.sequences.genome import synthesize_genome
from repro.sequences.read_simulator import (
    illumina_profile,
    pacbio_clr_profile,
    simulate_pair,
    simulate_reads,
)
from repro.serving.http import AlignmentHTTPServer
from repro.serving.server import AlignmentServer

from pbench import layers
from pbench.client import HttpConnection
from pbench.oracle import ReadTruth, align_response_ok, check_map_job
from pbench.spans import Recorder, SpanRecord, self_time, union_length
from pbench.stats import sliced_percentile, sliced_rates

ENGINE = "native"

#: Slices a measured window is cut into for median rates and percentiles.
SLICES = 15

#: Length of the ``synthesize_genome`` reference.
GENOME_LENGTH = 1_000_000

#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds between resident-set samples while the deployment serves.
RSS_INTERVAL = 0.05

#: Seed (k-mer) length of the deployment's index.
SEED_LENGTH = 15

#: Similarity of ``simulate_pair`` pairs (about 10% divergence).
PAIR_SIMILARITY = 0.9

#: A map-job client waits this long after an output read that returned no
#: data before reading again.
POLL_INTERVAL = 0.005

#: Trace runs also measure the untraced path for this share of
#: ``seconds``; the two throughputs give the tracing overhead.
UNTRACED_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    """One traffic mix against the deployment (why each: BENCHMARK.json).

    ``error_rate`` and ``use_prefilter`` configure the deployment's mapper;
    ``pool_rate`` sizes the input pool (ops per measured second, 1.5 to
    2.5 times the rate measured on a 2-core host; a program fast enough to
    use up the pool ends the phase early, never reuses an input);
    ``warmup_ops`` is per connection (requests or jobs).
    """

    name: str
    kind: str  # "align" or "map"
    error_rate: float
    use_prefilter: bool
    pool_rate: float
    warmup_ops: int
    #: Closed-loop clients, one keep-alive connection each.
    connections: int = 2
    read_length: int = 100
    reads_per_job: int = 0
    profile: Callable | None = None

    @property
    def placement_tolerance(self) -> int:
        """Bases a mapped position may sit from the simulated origin."""
        return max(16, int(self.read_length * self.error_rate))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="align_http",
            kind="align",
            error_rate=0.05,
            use_prefilter=True,
            pool_rate=800.0,
            warmup_ops=150,
        ),
        Workload(
            name="map_short",
            kind="map",
            error_rate=0.05,
            use_prefilter=True,
            pool_rate=6000.0,
            warmup_ops=1,
            connections=4,
            read_length=100,
            reads_per_job=256,
            profile=illumina_profile,
        ),
        Workload(
            name="map_long",
            kind="map",
            error_rate=0.10,
            use_prefilter=False,
            pool_rate=35.0,
            warmup_ops=2,
            connections=4,
            read_length=10_000,
            reads_per_job=2,
            profile=pacbio_clr_profile,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class AlignItem:
    text: str
    pattern: str
    body: bytes
    expected: tuple[str, int, int, int]


@dataclass
class MapItem:
    reads: list[tuple[str, str]]
    truths: list[ReadTruth]
    body: bytes


def _distinct(items: list, key: Callable) -> list:
    """Drop later items whose key repeats an earlier one (order kept)."""
    seen: set = set()
    out = []
    for item in items:
        k = key(item)
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


def align_items(count: int, workload: Workload, seed: int) -> list[AlignItem]:
    """``count`` distinct ``simulate_pair`` pairs with their expected alignment."""
    rng = random.Random(seed)
    pairs = _distinct(
        [
            simulate_pair(
                workload.read_length,
                PAIR_SIMILARITY,
                seed=rng.getrandbits(63),
            )[:2]
            for _ in range(count)
        ],
        key=lambda pair: pair,
    )
    aligner = GenAsmAligner(engine=ENGINE)
    expected = aligner.align_batch(pairs)
    return [
        AlignItem(
            text=text,
            pattern=pattern,
            body=json.dumps({"text": text, "pattern": pattern}).encode(),
            expected=(
                a.cigar.to_sam(),
                a.edit_distance,
                a.text_start,
                a.text_consumed,
            ),
        )
        for (text, pattern), a in zip(pairs, expected)
    ]


def map_items(
    genome: Any, jobs: int, workload: Workload, seed: int
) -> list[MapItem]:
    """``jobs`` map jobs of distinct simulated reads, FASTQ bodies prebuilt."""
    reads = _distinct(
        simulate_reads(
            genome,
            count=jobs * workload.reads_per_job,
            read_length=workload.read_length,
            profile=workload.profile(workload.error_rate),
            seed=seed,
        ),
        key=lambda read: read.sequence,
    )
    items = []
    for lo in range(0, len(reads), workload.reads_per_job):
        chunk = reads[lo : lo + workload.reads_per_job]
        fastq = "".join(
            f"@{r.name}\n{r.sequence}\n+\n{'I' * len(r.sequence)}\n"
            for r in chunk
        )
        items.append(
            MapItem(
                reads=[(r.name, r.sequence) for r in chunk],
                truths=[ReadTruth(r.true_start, r.reverse) for r in chunk],
                body=json.dumps({"fastq": fastq, "final": True}).encode(),
            )
        )
    return items


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
@dataclass
class OpResult:
    """One operation as the client saw it."""

    op_id: str
    item: Any
    start: float
    end: float
    ok: bool
    #: Throughput units: 1 per request, one per read for a map job.
    units: int
    response: Any = None
    #: Process CPU clock when the load generator saw the op complete.
    cpu_end: float = 0.0
    polls: int = 0
    empty_polls: int = 0


async def _align_op(
    conn: HttpConnection, op_id: str, item: AlignItem, recorder: Recorder
) -> OpResult:
    start = time.perf_counter()
    try:
        status, response = await conn.request(
            "POST", "/v1/align", item.body, request_id=op_id
        )
        ok = status == 200
    except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError):
        response, ok = None, False
    end = time.perf_counter()
    recorder.record("http.align", start, end, op=op_id)
    return OpResult(op_id, item, start, end, ok, 1, response)


async def _map_op(
    conn: HttpConnection,
    op_id: str,
    item: MapItem,
    recorder: Recorder,
) -> OpResult:
    """Create a map job carrying all its reads, then read output to EOF."""
    start = time.perf_counter()
    result = OpResult(op_id, item, start, start, False, len(item.reads))
    try:
        status, created = await conn.request(
            "POST", "/v1/jobs/map", item.body, request_id=op_id
        )
        recorder.record(
            "http.job_create", start, time.perf_counter(), op=op_id
        )
        if status != 200:
            return result
        path = f"/v1/jobs/{created['job_id']}/output?offset="
        offset = 0
        parts = []
        while True:
            poll_start = time.perf_counter()
            status, out = await conn.request("GET", f"{path}{offset}")
            recorder.record(
                "http.job_poll", poll_start, time.perf_counter(), op=op_id
            )
            result.polls += 1
            if status != 200:
                return result
            parts.append(out["data"])
            offset = out["next_offset"]
            if not out["data"]:
                result.empty_polls += 1
            if out["eof"]:
                break
            if not out["data"]:
                await asyncio.sleep(POLL_INTERVAL)
        result.ok = out["state"] == "done"
        result.response = "".join(parts)
    except (ConnectionError, OSError, ValueError, KeyError,
            asyncio.IncompleteReadError):
        result.ok = False
    finally:
        result.end = time.perf_counter()
    return result


async def closed_loop(
    conns: list[HttpConnection],
    items: list,
    deadline: float,
    run_op: Callable,
    prefix: str,
) -> list[OpResult]:
    """Every connection takes the next unused item until ``deadline``.

    Items are taken in order and never reused; running out of items ends
    the phase early.
    """
    source = iter(enumerate(items))
    results: list[OpResult] = []

    async def worker(conn: HttpConnection) -> None:
        while time.perf_counter() < deadline:
            taken = next(source, None)
            if taken is None:
                return
            index, item = taken
            result = await run_op(conn, f"{prefix}-{index}", item)
            result.cpu_end = time.process_time()
            results.append(result)

    await asyncio.gather(*(worker(conn) for conn in conns))
    return results


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def resident_mb() -> float:
    """The process's resident set now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


@dataclass
class RssPeak:
    """The highest resident set sampled, on demand or while :meth:`watch` runs."""

    peak: float = 0.0

    def sample(self) -> None:
        self.peak = max(self.peak, resident_mb())

    async def watch(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(RSS_INTERVAL)


@dataclass
class Deployment:
    front: AlignmentHTTPServer
    server: AlignmentServer
    setup_seconds: float
    build_seconds: float


async def deploy(
    genome: Any, workload: Workload, recorder: Recorder | None
) -> Deployment:
    """Set up mapper + server + listening front (traced when ``recorder``)."""
    options = dict(
        seed_length=SEED_LENGTH,
        error_rate=workload.error_rate,
        use_prefilter=workload.use_prefilter,
    )
    start = time.perf_counter()
    if recorder is None:
        mapper = make_genasm_mapper(genome, engine=ENGINE, **options)
        build_seconds = time.perf_counter() - start
        server = AlignmentServer(mapper=mapper, engine=ENGINE)
        front = AlignmentHTTPServer(server)
    else:
        mapper, build_seconds = layers.build_traced_mapper(
            genome, recorder, **options
        )
        server = AlignmentServer(mapper=mapper, engine=mapper.engine)
        front = AlignmentHTTPServer(layers.TracedBackend(server, recorder))
    await front.start(host="127.0.0.1", port=0)
    return Deployment(front, server, time.perf_counter() - start, build_seconds)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One measured window: its operations and the server's flush counters.

    Throughput, CPU per op and latency percentiles are medians over up to
    :data:`SLICES` consecutive slices of the window (see
    :func:`~pbench.stats.sliced_rates` and
    :func:`~pbench.stats.sliced_percentile`), so host contention, or spare
    capacity, lasting under half the window does not move them.
    """

    results: list[OpResult]
    start: float
    cpu_start: float
    served: int = 0
    flushes: int = 0
    deadline_flushes: int = 0

    @property
    def ok(self) -> list[OpResult]:
        return [r for r in self.results if r.ok]

    def _slices(self) -> tuple[list[float], list[float]]:
        return sliced_rates(
            [(r.end, r.cpu_end, r.units) for r in self.ok],
            self.start,
            self.cpu_start,
            SLICES,
        )

    @property
    def throughput(self) -> float:
        rates, _ = self._slices()
        return statistics.median(rates) if rates else 0.0

    @property
    def cpu_seconds_per_unit(self) -> float:
        _, costs = self._slices()
        return statistics.median(costs) if costs else 0.0


@dataclass
class RunOutcome:
    """Everything a run measured, before it is turned into metrics."""

    engine: str
    setup_seconds: list[float]
    build_seconds: list[float]
    measured: Phase
    untraced: Phase | None
    attempted: int
    failed: int
    correct_units: int
    mismatches: int
    warmup_counts: dict[str, float]
    #: Peak resident set while set up and serving, over the resident set
    #: once every input existed: the deployment's memory, without the
    #: input pool or the oracle's.
    rss_growth_mb: float
    spans: list[SpanRecord] = field(default_factory=list)


async def _measure(
    dep: Deployment,
    conns: list[HttpConnection],
    items: list,
    seconds: float,
    run_op: Callable,
    prefix: str,
) -> Phase:
    stats = dep.server.stats
    before = (stats.served, stats.flushes, stats.deadline_flushes)
    start = time.perf_counter()
    cpu_start = time.process_time()
    results = await closed_loop(conns, items, start + seconds, run_op, prefix)
    return Phase(
        results,
        start,
        cpu_start,
        stats.served - before[0],
        stats.flushes - before[1],
        stats.deadline_flushes - before[2],
    )


def _pipeline_counts(mapper: Any) -> dict[str, float]:
    """Exact per-read work counts from ``ReadMapper.stats``."""
    s = mapper.stats
    reads = max(1, s.reads)
    return {
        "mapping.candidates_per_read": s.candidates / reads,
        "mapping.alignments_per_read": s.alignments_run / reads,
        "mapping.filter_reject_frac": s.filter_rate,
    }


async def run(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> RunOutcome:
    # Inputs: all generated before any timing, all distinct.
    genome = synthesize_genome(GENOME_LENGTH, seed=seed)
    warm_count = workload.warmup_ops * workload.connections
    timed_seconds = seconds * (1.0 + UNTRACED_SHARE if trace else 1.0)
    if workload.kind == "align":
        count = warm_count + math.ceil(workload.pool_rate * timed_seconds)
        items = align_items(count, workload, seed)
    else:
        jobs = warm_count + math.ceil(
            workload.pool_rate * timed_seconds / workload.reads_per_job
        )
        items = map_items(genome, jobs, workload, seed)
    warm_items, items = items[:warm_count], items[warm_count:]

    recorder = Recorder()
    if workload.kind == "align":
        def run_op(conn, op_id, item):
            return _align_op(conn, op_id, item, recorder)
    else:
        def run_op(conn, op_id, item):
            return _map_op(conn, op_id, item, recorder)

    gc.collect()
    rss_baseline = resident_mb()
    rss = RssPeak()

    # Set-up, several times; the last deployment is the one measured.
    setup_seconds: list[float] = []
    build_seconds: list[float] = []
    dep: Deployment | None = None
    for _ in range(SETUPS):
        if dep is not None:
            await dep.front.stop()
            dep = None
        gc.collect()
        dep = await deploy(genome, workload, recorder if trace else None)
        rss.sample()
        setup_seconds.append(dep.setup_seconds)
        build_seconds.append(dep.build_seconds)

    conns = [
        await HttpConnection.open("127.0.0.1", dep.front.port)
        for _ in range(workload.connections)
    ]
    watcher = asyncio.create_task(rss.watch())
    try:
        await closed_loop(conns, warm_items, math.inf, run_op, "warm")
        warmup_counts = _pipeline_counts(dep.server.mapper)
        untraced = None
        if trace:
            untraced = await _measure(
                dep, conns, items, seconds * UNTRACED_SHARE, run_op,
                "untraced",
            )
            items = items[len(untraced.results):]
            recorder.enabled = True
        measured = await _measure(dep, conns, items, seconds, run_op, "op")
        recorder.enabled = False
    finally:
        watcher.cancel()
        await asyncio.gather(watcher, return_exceptions=True)
        rss.sample()
        for conn in conns:
            await conn.close()
        await dep.front.stop()

    phases = [measured] + ([untraced] if untraced is not None else [])
    done = [r for phase in phases for r in phase.results]
    attempted = sum(r.units for r in done)
    failed = sum(r.units for r in done if not r.ok)
    if workload.kind == "align":
        correct, mismatches = _check_align(done)
    else:
        correct, mismatches = _check_map(dep.server.mapper, workload, done)
    return RunOutcome(
        engine=dep.server.engine_name,
        setup_seconds=setup_seconds,
        build_seconds=build_seconds,
        measured=measured,
        untraced=untraced,
        attempted=attempted,
        failed=failed,
        correct_units=correct,
        mismatches=mismatches,
        warmup_counts=warmup_counts,
        rss_growth_mb=rss.peak - rss_baseline,
        spans=recorder.spans,
    )


def _check_align(done: list[OpResult]) -> tuple[int, int]:
    correct = mismatches = 0
    for r in done:
        if not r.ok:
            continue
        item: AlignItem = r.item
        if align_response_ok(r.response, item.expected, item.text, item.pattern):
            correct += 1
        else:
            mismatches += 1
    return correct, mismatches


def _check_map(
    mapper: Any, workload: Workload, done: list[OpResult]
) -> tuple[int, int]:
    """Map every completed job's reads in-process and compare the SAM."""
    finished = [r for r in done if r.ok]
    oracle = mapper.map_reads(
        [read for r in finished for read in r.item.reads]
    )
    lines = [m.record.to_line() for m in oracle]
    header = sam_header(mapper.reference_sequences())
    correct = mismatches = 0
    pos = 0
    for r in finished:
        n = len(r.item.reads)
        identical, placed = check_map_job(
            r.response,
            header,
            lines[pos : pos + n],
            r.item.truths,
            workload.placement_tolerance,
        )
        pos += n
        correct += sum(placed)
        mismatches += 0 if identical else 1
    return correct, mismatches


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(out: RunOutcome) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of the measured (untraced) phase."""
    phase = out.measured
    # In completion order, so that slices are consecutive stretches of time.
    latencies = [(r.end - r.start) * 1e3 for r in phase.ok]
    return {
        "throughput": (phase.throughput, "1/s"),
        "latency_p50_ms": (sliced_percentile(latencies, 0.5, SLICES), "ms"),
        "latency_p90_ms": (sliced_percentile(latencies, 0.9, SLICES), "ms"),
        "latency_samples": (float(len(latencies)), "count"),
        "cpu_ms_per_op": (phase.cpu_seconds_per_unit * 1e3, "ms"),
        "correct_frac": (out.correct_units / max(1, out.attempted), "frac"),
        "peak_rss_growth_mb": (out.rss_growth_mb, "MB"),
        "setup_s": (statistics.median(out.setup_seconds), "s"),
    }


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


@dataclass
class _TraceIndex:
    """A traced phase's spans, grouped the ways the metrics read them."""

    by_name: dict[str, list[SpanRecord]]
    children: dict[int, list[SpanRecord]]
    http_by_op: dict[str, list[SpanRecord]]
    backend_by_op: dict[str, list[SpanRecord]]
    #: Request key -> interval of the batch span that answered it: the
    #: mapper's per-flush ``map_reads_batch``, or the server's own engine
    #: ``align_batch`` (one with no parent span).
    answered_by: dict[str, tuple[float, float]]

    @classmethod
    def build(cls, spans: list[SpanRecord]) -> "_TraceIndex":
        index = cls(
            defaultdict(list), defaultdict(list), defaultdict(list),
            defaultdict(list), {},
        )
        for s in spans:
            index.by_name[s.name].append(s)
            if s.parent is not None:
                index.children[s.parent].append(s)
            if s.name.startswith("http."):
                index.http_by_op[s.op].append(s)
            elif s.name.startswith("server."):
                index.backend_by_op[s.op].append(s)
            if s.name == "mapping.batch" or (
                s.name == "engine.align_batch" and s.parent is None
            ):
                for key in s.keys:
                    index.answered_by[key] = (s.start, s.end)
        return index

    def http_self(self, op_id: str) -> float:
        """The op's round trips minus the parts its backend calls cover."""
        backend = [(s.start, s.end) for s in self.backend_by_op.get(op_id, ())]
        return sum(
            self_time(s.start, s.end, backend)
            for s in self.http_by_op.get(op_id, ())
        )

    def answered(self, call: SpanRecord) -> tuple[float, float] | None:
        """The part of a backend call its answering batch covers."""
        batch = self.answered_by.get(call.keys[0])
        if batch is None:
            return None
        lo, hi = max(batch[0], call.start), min(batch[1], call.end)
        return (lo, hi) if hi > lo else None


def per_layer_metrics(out: RunOutcome) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase, from the recorded spans."""
    index = _TraceIndex.build(out.spans)
    by_name = index.by_name
    phase = out.measured
    ops = phase.ok

    # serving.server: each backend call minus the batch that answered it.
    backend = [s for calls in index.backend_by_op.values() for s in calls]
    wait = 0.0
    for call in backend:
        covered = index.answered(call)
        wait += call.duration - (covered[1] - covered[0] if covered else 0.0)

    # mapping: per-flush batches minus their filter and align calls.
    batches = by_name["mapping.batch"]
    mapping_self = sum(
        self_time(
            s.start, s.end, [(c.start, c.end) for c in index.children[s.id]]
        )
        for s in batches
    )
    creates = by_name["http.job_create"]
    filters = by_name["mapping.filter"]
    aligns = by_name["mapping.align"]
    engine_aligns = by_name["engine.align_batch"]
    pairs = sum(s.n for s in engine_aligns)
    requests = sum(len(v) for v in index.http_by_op.values())

    untraced = out.untraced.throughput if out.untraced is not None else 0.0
    metrics = {
        "http.self_ms": (
            _mean(sum(index.http_self(r.op_id) for r in ops) * 1e3, len(ops)),
            "ms",
        ),
        "http.requests_per_op": (_mean(requests, len(ops)), "count"),
        "server.wait_ms": (_mean(wait * 1e3, len(backend)), "ms"),
        "server.batch_mean": (_mean(phase.served, phase.flushes), "count"),
        "server.deadline_flush_frac": (
            _mean(phase.deadline_flushes, phase.flushes), "frac"
        ),
        "jobs.ingest_ms": (
            _mean(sum(s.duration for s in creates) * 1e3, len(creates)), "ms"
        ),
        "jobs.empty_poll_frac": (
            _mean(sum(r.empty_polls for r in ops), sum(r.polls for r in ops)),
            "frac",
        ),
        "mapping.self_ms_per_read": (
            _mean(mapping_self * 1e3, sum(s.n for s in batches)), "ms"
        ),
        "mapping.filter_us_per_candidate": (
            _mean(sum(s.duration for s in filters) * 1e6,
                  sum(s.n for s in filters)),
            "us",
        ),
        "mapping.align_us_per_alignment": (
            _mean(sum(s.duration for s in aligns) * 1e6,
                  sum(s.n for s in aligns)),
            "us",
        ),
        "engine.align_us_per_pair": (
            _mean(sum(s.duration for s in engine_aligns) * 1e6, pairs), "us"
        ),
        "engine.pairs_per_call": (_mean(pairs, len(engine_aligns)), "count"),
        "mapping.index_build_s": (statistics.median(out.build_seconds), "s"),
        "trace.traced_throughput": (phase.throughput, "1/s"),
        "trace.overhead_frac": (
            1.0 - phase.throughput / untraced if untraced else 0.0, "frac"
        ),
    }
    metrics.update(
        {name: (value, "count" if "per_read" in name else "frac")
         for name, value in out.warmup_counts.items()}
    )
    return metrics


def layer_breakdown(out: RunOutcome) -> dict[str, float]:
    """Where each operation's wall time went, in ms per operation.

    Per op: ``serving.http`` is its round trips not overlapped by its own
    backend calls; ``serving.server`` the union of its backend calls not
    covered by the batches that answered them; the covered part is split
    between ``mapping`` and ``engine`` by their shares of all batch time;
    ``client`` is the rest (load generator, poll sleeps).
    """
    index = _TraceIndex.build(out.spans)
    engine_ids = {s.id for s in out.spans if s.name.startswith("engine.")}
    # An engine span nested in another is already in its parent.
    engine_time = sum(
        s.duration
        for s in out.spans
        if s.id in engine_ids and s.parent not in engine_ids
    )
    batch_time = sum(
        s.duration
        for s in index.by_name["mapping.batch"] + index.by_name["engine.align_batch"]
        if s.name == "mapping.batch" or s.parent is None
    )
    engine_share = min(1.0, engine_time / batch_time) if batch_time else 0.0
    totals: Counter = Counter()
    ops = out.measured.ok
    for r in ops:
        calls = index.backend_by_op.get(r.op_id, ())
        backend_union = union_length([(s.start, s.end) for s in calls])
        covered = union_length(
            [c for c in map(index.answered, calls) if c is not None]
        )
        http_self = index.http_self(r.op_id)
        totals["serving.http"] += http_self
        totals["serving.server"] += backend_union - covered
        totals["mapping"] += covered * (1.0 - engine_share)
        totals["engine"] += covered * engine_share
        totals["client"] += (r.end - r.start) - http_self - backend_union
    return {layer: t * 1e3 / max(1, len(ops)) for layer, t in totals.items()}
