"""Latency/throughput statistics collection.

A :class:`LatencyRecorder` accumulates raw samples (seconds) and reports
summary statistics; :class:`Metrics` is the per-experiment container the
protocol engines write into and the bench harness reads from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Summary:
    """Summary statistics of a latency sample set (all in seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @property
    def mean_us(self) -> float:
        return self.mean * 1e6

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean * 1e6:.2f}us "
                f"p50={self.p50 * 1e6:.2f}us p99={self.p99 * 1e6:.2f}us")

    def to_dict(self) -> dict:
        """The JSON form every ``--json`` payload uses."""
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "min_s": self.minimum,
            "max_s": self.maximum,
        }


EMPTY_SUMMARY = Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def percentile(sorted_samples: List[float], fraction: float) -> float:
    """Nearest-rank-with-interpolation percentile of pre-sorted samples.

    *fraction* is clamped to [0, 1]: a negative fraction used to index
    from the wrong end (``rank`` went negative, silently returning a
    near-maximum sample) and a fraction above 1 raised ``IndexError``.
    Out-of-range requests now answer with the exact extremes.
    """
    if not sorted_samples:
        return 0.0
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    if fraction <= 0.0:
        return sorted_samples[0]
    if fraction >= 1.0:
        return sorted_samples[-1]
    rank = fraction * (len(sorted_samples) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_samples[low]
    weight = rank - low
    # a + (b - a) * w is exact when a == b, unlike a*(1-w) + b*w, whose
    # rounding can escape the [a, b] interval.
    a, b = sorted_samples[low], sorted_samples[high]
    return a + (b - a) * weight


class LatencyRecorder:
    """Accumulates latency samples and summarizes them."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def add(self, seconds: float) -> None:
        self._samples.append(seconds)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def summary(self) -> Summary:
        if not self._samples:
            return EMPTY_SUMMARY
        ordered = sorted(self._samples)
        return Summary(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
            minimum=ordered[0],
            maximum=ordered[-1],
        )


@dataclass
class Counters:
    """Protocol event counters useful for debugging and tests."""

    writes_started: int = 0
    writes_completed: int = 0
    writes_obsolete: int = 0
    reads_completed: int = 0
    read_stalls: int = 0
    persists: int = 0
    invs_sent: int = 0
    acks_sent: int = 0
    vals_sent: int = 0
    rdlock_snatches: int = 0
    vfifo_skips: int = 0
    scope_persist_txns: int = 0
    # Robustness-layer counters (stay zero on the fault-free path).
    inv_retransmits: int = 0
    val_rebroadcasts: int = 0
    dedup_inv_hits: int = 0
    dedup_ack_hits: int = 0


class Metrics:
    """All measurements of one experiment run.

    The engines record operation latencies, per-write communication spans,
    and follower INV-handling durations; :mod:`repro.metrics.breakdown`
    turns the latter two into the paper's Figure 4 communication /
    computation split.
    """

    def __init__(self) -> None:
        self.write_latency = LatencyRecorder()
        self.read_latency = LatencyRecorder()
        self.persist_latency = LatencyRecorder()
        self.counters = Counters()
        #: write_id -> (first INV deposit time, last needed ACK time).
        self.comm_spans: Dict[int, tuple] = {}
        #: write_id -> list of follower INV-handling durations (seconds).
        self.follower_handling: Dict[int, List[float]] = {}
        #: Wall-clock (simulated) span of the measured phase.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- recording hooks used by engines ---------------------------------------

    def record_write(self, latency: float) -> None:
        self.write_latency.add(latency)
        self.counters.writes_completed += 1

    def record_read(self, latency: float) -> None:
        self.read_latency.add(latency)
        self.counters.reads_completed += 1

    def record_comm_span(self, write_id: int, inv_deposit: float,
                         last_ack: float) -> None:
        self.comm_spans[write_id] = (inv_deposit, last_ack)

    def record_follower_handling(self, write_id: int, duration: float) -> None:
        self.follower_handling.setdefault(write_id, []).append(duration)

    # -- results ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def throughput(self, ops: Optional[int] = None) -> float:
        """Operations per second over the measured phase."""
        if self.duration <= 0:
            return 0.0
        if ops is None:
            ops = (self.counters.writes_completed +
                   self.counters.reads_completed)
        return ops / self.duration

    def write_throughput(self) -> float:
        return self.throughput(self.counters.writes_completed)

    def read_throughput(self) -> float:
        return self.throughput(self.counters.reads_completed)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of everything measured — for
        dumping experiment results to disk (``repro experiment --json``)
        and for downstream tooling."""
        return {
            "write_latency": self.write_latency.summary().to_dict(),
            "read_latency": self.read_latency.summary().to_dict(),
            "persist_latency": self.persist_latency.summary().to_dict(),
            "write_throughput_ops": self.write_throughput(),
            "read_throughput_ops": self.read_throughput(),
            "duration_s": self.duration,
            "counters": dict(vars(self.counters)),
        }
