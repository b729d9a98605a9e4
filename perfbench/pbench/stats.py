"""Order statistics with an explicit sample-count rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported percentile must leave at least this many samples beyond it;
#: fewer means the "p90" is really the maximum of a handful of values.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(RuntimeError):
    """A percentile was requested from too few samples to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie strictly beyond the chosen rank,
    so a p90 needs at least 100 samples and a p50 at least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    tail = n - rank
    if tail < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples leaves {tail} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES} (run longer)"
        )
    return sorted(values)[rank - 1]


def min_samples(q: float) -> int:
    """The fewest samples whose ``q``-quantile :func:`percentile` accepts."""
    n = MIN_TAIL_SAMPLES
    while n - max(1, math.ceil(q * n)) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def sliced_percentile(values: Sequence[float], q: float, slices: int) -> float:
    """Median over consecutive slices of ``values`` of each slice's ``q``-quantile.

    ``values`` are in completion order. They are cut into at most
    ``slices`` runs (as equal in count as possible), but never so many
    that a slice has too few samples for :func:`percentile`; a burst of
    host contention shorter than half the window then moves at most a
    minority of the slice quantiles. Raises :class:`InsufficientSamples`
    when even one slice would be too small.
    """
    n = len(values)
    slices = min(slices, n // min_samples(q))
    if slices < 1:
        # Too few for one slice: let percentile name the shortfall.
        return percentile(values, q)
    return statistics.median(
        percentile(values[n * i // slices : n * (i + 1) // slices], q)
        for i in range(slices)
    )


def sliced_rates(
    events: Sequence[tuple[float, float, int]],
    start: float,
    cpu_start: float,
    slices: int,
) -> tuple[list[float], list[float]]:
    """Per-slice rates of a measured window, for medians robust to bursts.

    ``events`` are ``(wall_end, cpu_end, units)`` per completed operation.
    Sorted by completion, they are cut into ``slices`` runs of consecutive
    completions (as equal in count as possible); each slice spans from the
    previous slice's last completion (or ``start`` / ``cpu_start``) to its
    own. Returns ``(units per wall second, CPU seconds per unit)`` for each
    slice.
    """
    ordered = sorted(events)
    slices = min(slices, len(ordered))
    rates: list[float] = []
    cpu_costs: list[float] = []
    wall, cpu = start, cpu_start
    for i in range(slices):
        chunk = ordered[len(ordered) * i // slices : len(ordered) * (i + 1) // slices]
        units = sum(u for _, _, u in chunk)
        end_wall = chunk[-1][0]
        end_cpu = max(c for _, c, _ in chunk)
        if end_wall > wall and units:
            rates.append(units / (end_wall - wall))
            cpu_costs.append((end_cpu - cpu) / units)
        wall, cpu = end_wall, max(cpu, end_cpu)
    return rates, cpu_costs
