"""Tests for the benchmark's own helpers: statistics, spans, oracles.

Run from the repository root (after building the native kernels with
``python setup.py build_ext --inplace``)::

    python -m pytest perfbench/tests -q
"""

import asyncio
import dataclasses

import pytest

from pbench.spans import Recorder, self_time, union_length
from pbench.stats import (
    InsufficientSamples,
    min_samples,
    percentile,
    sliced_percentile,
    sliced_rates,
)
from repro.engine import engine_info

native = pytest.mark.skipif(
    not any(i.name == "native" and i.available for i in engine_info()),
    reason="native kernels not built",
)


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(list(reversed(values)), 0.9) == 90


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 0.9) == 89  # exactly 10 beyond
    with pytest.raises(InsufficientSamples):
        percentile(list(range(99)), 0.9)  # 9 beyond
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 0.5)


def test_percentile_equal_to_maximum_is_refused():
    # The failure this rule prevents: p90 == max because too few samples.
    with pytest.raises(InsufficientSamples):
        percentile([1.0, 2.0, 3.0], 0.9)


def test_sliced_percentile_is_a_median_of_slice_percentiles():
    assert (min_samples(0.9), min_samples(0.5)) == (100, 20)
    # Three slices of 100; the middle one is a burst of slow operations.
    fast, slow = list(range(100)), [v + 1000 for v in range(100)]
    assert sliced_percentile(fast + slow + fast, 0.9, 15) == 89
    # Too few samples for even one slice: refused, as by percentile.
    with pytest.raises(InsufficientSamples):
        sliced_percentile(list(range(99)), 0.9, 15)
    # One slice is the plain percentile.
    assert sliced_percentile(list(range(150)), 0.9, 15) == percentile(
        list(range(150)), 0.9
    )


def test_sliced_rates_per_slice():
    # Four ops of one unit, completing at t=1,2,3,4 with CPU 0.5 s each.
    events = [(float(t), 0.5 * t, 1) for t in (4, 1, 3, 2)]
    rates, cpu = sliced_rates(events, start=0.0, cpu_start=0.0, slices=2)
    assert rates == [1.0, 1.0]
    assert cpu == [0.5, 0.5]
    rates, _ = sliced_rates(events, start=0.0, cpu_start=0.0, slices=10)
    assert len(rates) == 4


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_with_overlapping_children():
    # Children overlap each other and stick out of the parent.
    children = [(1, 3), (2, 5), (8, 12), (-3, -1)]
    assert self_time(0, 10, children) == 10 - (4 + 2)
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(-1, 11)]) == 0


def test_recorder_nests_spans_per_thread_and_is_off_by_default():
    rec = Recorder()
    with rec.span("outer"):
        pass
    assert rec.spans == []
    rec.enabled = True
    with rec.span("outer", n=2):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert outer.n == 2


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
@native
def test_align_oracle_accepts_real_and_rejects_tampered_responses():
    from repro.core.aligner import GenAsmAligner
    from repro.sequences.read_simulator import simulate_pair

    from pbench.oracle import align_response_ok

    text, pattern, _ = simulate_pair(100, 0.9, seed=7)
    a = GenAsmAligner(engine="native").align(text, pattern)
    expected = (a.cigar.to_sam(), a.edit_distance, a.text_start, a.text_consumed)
    response = dict(
        zip(("cigar", "edit_distance", "text_start", "text_consumed"), expected)
    )
    assert align_response_ok(response, expected, text, pattern)
    assert not align_response_ok(
        {**response, "edit_distance": a.edit_distance + 1}, expected, text, pattern
    )
    assert not align_response_ok(None, expected, text, pattern)
    # Equal to a (wrong) expectation but not a valid transcript: refused.
    bogus = (f"{len(pattern)}I", len(pattern), 0, 0)
    bogus_response = dict(zip(response, bogus))
    assert align_response_ok(bogus_response, bogus, text, pattern)
    wrong = (f"{len(pattern)}=", 0, 0, len(pattern))
    assert not align_response_ok(dict(zip(response, wrong)), wrong, text, pattern)


@native
def test_map_oracle_checks_records_and_placement():
    from repro.mapping.pipeline import make_genasm_mapper
    from repro.mapping.sam import sam_header
    from repro.sequences import illumina_profile, simulate_reads, synthesize_genome

    from pbench.oracle import ReadTruth, check_map_job

    genome = synthesize_genome(20_000, seed=3)
    mapper = make_genasm_mapper(
        genome, seed_length=12, error_rate=0.05, engine="native"
    )
    reads = simulate_reads(
        genome, count=6, read_length=100, profile=illumina_profile(0.05), seed=4
    )
    truths = [ReadTruth(r.true_start, r.reverse) for r in reads]
    lines = [
        m.record.to_line()
        for m in mapper.map_reads([(r.name, r.sequence) for r in reads])
    ]
    header = sam_header(mapper.reference_sequences())
    sam = header + "".join(line + "\n" for line in lines)

    identical, placed = check_map_job(sam, header, lines, truths, 16)
    assert identical and len(placed) == 6 and any(placed)

    # A record that differs from the oracle is a mismatch and never placed.
    fields = lines[0].split("\t")
    fields[3] = str(int(fields[3]) + 1)
    tampered = sam.replace(lines[0], "\t".join(fields))
    identical, placed_t = check_map_job(tampered, header, lines, truths, 16)
    assert not identical and not placed_t[0]
    assert placed_t[1:] == placed[1:]

    # Missing records are mismatches too.
    truncated = header + "".join(line + "\n" for line in lines[:4])
    identical, placed_t = check_map_job(truncated, header, lines, truths, 16)
    assert not identical and placed_t[4:] == [False, False]

    # Right record, wrong origin: identical, but not placed.
    far = [ReadTruth(t.start + 1000, t.reverse) for t in truths]
    identical, placed_t = check_map_job(sam, header, lines, far, 16)
    assert identical and not any(placed_t)


# ----------------------------------------------------------------------
# Self-check: exact counts repeat across traced runs of one seed
# ----------------------------------------------------------------------
@native
@pytest.mark.parametrize("name", ["map_short", "align_http"])
def test_exact_counts_repeat_across_traced_runs(name):
    from pbench import workloads

    workload = dataclasses.replace(
        workloads.WORKLOADS[name], pool_rate=2000.0, reads_per_job=16
    )
    counts = []
    for _ in range(2):
        out = asyncio.run(workloads.run(workload, 11, 0.5, trace=True))
        assert out.mismatches == 0 and out.failed == 0
        metrics = workloads.per_layer_metrics(out)
        counts.append(
            {k: v for k, v in metrics.items() if k in out.warmup_counts}
        )
        assert len(out.spans) > 0
    assert counts[0] == counts[1]
    assert set(counts[0]) == {
        "mapping.candidates_per_read",
        "mapping.alignments_per_read",
        "mapping.filter_reject_frac",
    }
