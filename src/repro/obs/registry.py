"""Per-node metrics: counters, gauges, and log-bucketed histograms.

A :class:`MetricsRegistry` is the quantitative half of the observability
layer: where spans answer "where did *this* write spend its time", the
registry answers "what is the p99 of the ACK-wait phase on node 2".

:class:`LogHistogram` trades exactness for O(1) memory: samples land in
geometrically growing buckets (growth factor ``g``), so any percentile
estimate is within a factor ``g`` of the sample at the same nearest
rank — the bound the property tests in
``tests/metrics/test_stats_properties.py`` pin down.  Count, mean,
minimum and maximum are tracked exactly.  Summaries are reported through
the existing :class:`repro.metrics.stats.Summary` type so downstream
tooling sees one statistics vocabulary.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.metrics.stats import EMPTY_SUMMARY, Summary

#: Default growth factor: four buckets per octave, so estimates are
#: within ~19% (2**0.25) of the true nearest-rank sample.
DEFAULT_GROWTH = 2.0 ** 0.25

#: Smallest resolvable sample (1 ns): everything at or below lands in
#: bucket 0.  Simulated latencies are all well above this.
DEFAULT_FLOOR = 1e-9


class LogHistogram:
    """A logarithmically bucketed histogram of non-negative samples.

    Bucket 0 holds samples in ``[0, floor]``; bucket ``i >= 1`` holds
    ``(floor * g**(i-1), floor * g**i]``.  Estimates return the geometric
    midpoint of the target bucket, clamped to the exact observed
    ``[minimum, maximum]`` — which keeps the estimate inside the target
    bucket's bounds (the clamp can only move it toward a sample that is
    itself inside the bucket).
    """

    __slots__ = ("growth", "floor", "_log_growth", "buckets", "count",
                 "total", "minimum", "maximum")

    def __init__(self, growth: float = DEFAULT_GROWTH,
                 floor: float = DEFAULT_FLOOR) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth factor must exceed 1, got {growth}")
        if floor <= 0.0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.growth = growth
        self.floor = floor
        self._log_growth = math.log(growth)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @property
    def relative_error(self) -> float:
        """Worst-case multiplicative error of a percentile estimate
        versus the exact sample at the same nearest rank."""
        return self.growth

    def bucket_index(self, value: float) -> int:
        if value <= self.floor:
            return 0
        return int(math.log(value / self.floor) / self._log_growth) + 1

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``(low, high]`` bounds of bucket *index* (low is 0 for the
        floor bucket)."""
        if index <= 0:
            return (0.0, self.floor)
        return (self.floor * self.growth ** (index - 1),
                self.floor * self.growth ** index)

    def add(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def percentile_estimate(self, fraction: float) -> float:
        """Estimate the *fraction* percentile (nearest rank).

        Out-of-range fractions clamp to the extremes, mirroring the
        documented behaviour of :func:`repro.metrics.stats.percentile`.
        """
        if self.count == 0:
            return 0.0
        if fraction <= 0.0:
            return self.minimum
        if fraction >= 1.0:
            return self.maximum
        rank = max(1, math.ceil(fraction * self.count))
        cumulative = 0
        target = max(self.buckets)
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                target = index
                break
        low, high = self.bucket_bounds(target)
        estimate = math.sqrt(low * high) if low > 0.0 else high / 2.0
        return min(max(estimate, self.minimum), self.maximum)

    def summary(self) -> Summary:
        if self.count == 0:
            return EMPTY_SUMMARY
        return Summary(
            count=self.count,
            mean=self.total / self.count,
            p50=self.percentile_estimate(0.50),
            p95=self.percentile_estimate(0.95),
            p99=self.percentile_estimate(0.99),
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def to_dict(self) -> dict:
        payload = self.summary().to_dict()
        payload["relative_error"] = self.relative_error
        return payload


class MetricsRegistry:
    """Counters, gauges, and histograms of one node (or the fabric).

    Everything here is record-only bookkeeping: incrementing a counter or
    observing a histogram sample never touches the simulator, so a
    registry can be fed from hot paths without perturbing the calendar.
    """

    __slots__ = ("node", "counters", "_gauges", "_histograms")

    def __init__(self, node: int) -> None:
        self.node = node
        self.counters: Dict[str, int] = {}
        #: name -> [(time, value), ...] samples in record order.
        self._gauges: Dict[str, List[Tuple[float, float]]] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    # -- counters ------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- gauges --------------------------------------------------------------

    def gauge(self, name: str, time: float, value: float) -> None:
        self._gauges.setdefault(name, []).append((time, value))

    def gauge_samples(self, name: str) -> List[Tuple[float, float]]:
        return list(self._gauges.get(name, ()))

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    # -- histograms ----------------------------------------------------------

    def histogram(self, name: str) -> LogHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = LogHistogram()
            self._histograms[name] = histogram
        return histogram

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).add(value)

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": {name: {"samples": len(samples),
                              "last": samples[-1][1]}
                       for name, samples in sorted(self._gauges.items())},
            "histograms": {name: histogram.to_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }
