"""Summary statistics for the benchmark's latency samples."""

from __future__ import annotations

import math
import statistics

# Fewer samples than this give no tail worth the name: report the median alone.
MIN_TAIL_SAMPLES = 40
# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    None below MIN_TAIL_SAMPLES samples.  With n samples that percentile is
    100 * (1 - 10/n), so it rises smoothly with n (p75 at 40, p99 at 1000)
    instead of jumping between a fixed ladder of percentiles.
    """
    if count < MIN_TAIL_SAMPLES:
        return None
    return 100.0 * (1.0 - TAIL_BEYOND / count)


def tail_value(samples: list[float]) -> float | None:
    """The sample at tail_percentile: the largest with ten samples above it."""
    if tail_percentile(len(samples)) is None:
        return None
    return sorted(samples)[len(samples) - TAIL_BEYOND - 1]


def summarize(samples: list[float]) -> dict:
    """Median, tail and sample count of a list of timings."""
    if not samples:
        raise ValueError("no samples")
    summary = {"count": len(samples), "median": statistics.median(samples)}
    percentile = tail_percentile(len(samples))
    if percentile is not None:
        summary["tail_percentile"] = percentile
        summary["tail"] = tail_value(samples)
    return summary


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0 or not math.isfinite(median):
        return math.inf
    return (q3 - q1) / abs(median)
