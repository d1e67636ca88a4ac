"""Span-based observability: protocol-phase tracing + metrics.

This package turns a simulation run into an attributable timeline: each
client operation becomes a :class:`~repro.obs.spans.Span`, the protocol
phases it goes through (lock acquisition, INV fan-out, ACK wait, log
append, VAL broadcast, FIFO residency, retransmits) become
:class:`~repro.obs.spans.Segment` records correlated by op id across
coordinator and follower nodes, and per-node
:class:`~repro.obs.registry.MetricsRegistry` instances accumulate
counters, gauges, and log-bucketed histograms.

Attach with :meth:`repro.cluster.cluster.MinosCluster.attach_obs`, then
export with :func:`write_chrome_trace` (Perfetto /
``chrome://tracing``-loadable) or :func:`write_jsonl`, or print the
per-node swim lanes with :func:`timeline`.  Detached, the
layer costs one attribute check per call site and leaves the event
calendar byte-identical (see ``tests/sim/test_calendar_identity.py``).
"""

from repro.obs.export import (chrome_trace, jsonl_events, timeline,
                              validate_chrome_trace, write_chrome_trace,
                              write_jsonl)
from repro.obs.recorder import FABRIC_NODE, Observability
from repro.obs.registry import LogHistogram, MetricsRegistry
from repro.obs.spans import Instant, Segment, Span

__all__ = [
    "FABRIC_NODE",
    "Instant",
    "LogHistogram",
    "MetricsRegistry",
    "Observability",
    "Segment",
    "Span",
    "chrome_trace",
    "jsonl_events",
    "timeline",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
