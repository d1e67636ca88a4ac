"""The :class:`Observability` recorder: span/segment/metrics collection.

One recorder serves a whole cluster and is its one event record:
engines, the fabric, the SmartNICs and the fault injector all hold a
reference and call into it behind ``if self.obs is not None:`` guards.

Zero-overhead contract: when no recorder is attached the only cost at
a call site is the attribute check; when one *is* attached, every
method here is record-only — list appends, dict updates, counter
increments — and never creates events, processes, or timeouts, so the
simulation calendar is byte-identical with and without the recorder
(pinned by ``tests/sim/test_calendar_identity.py``).  Call sites pass
attribute values raw (no ``str()``/``round()``); the exporters render
them.

Defensive by design: segment ends without a matching begin, and span
ends for unknown (or ``None``) op ids, are ignored rather than raised —
a recorder attached mid-run must never take the simulation down.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.stats import LatencyRecorder, Summary
from repro.obs.export import timeline
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import (Instant, LANE_PHASES, Segment, Span,
                             freeze_attrs)

#: Pseudo-node id for cluster-wide (fabric) metrics.
FABRIC_NODE = -1


class Observability:
    """Collects spans, segments, instants, and per-node metrics."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: op_id -> Span, in begin order (coordinator side only).
        self.spans: Dict[Any, Span] = {}
        self.segments: List[Segment] = []
        self.instants: List[Instant] = []
        self._open: Dict[Tuple[int, Any, str], Tuple[float, str]] = {}
        self._registries: Dict[int, MetricsRegistry] = {}
        # Read op ids are minted here (negative), not from the protocol's
        # global write_id counter: attaching the recorder must not shift
        # the ids an unobserved run would assign.
        self._read_ids = itertools.count(1)

    # -- registries ----------------------------------------------------------

    def registry(self, node: int) -> MetricsRegistry:
        registry = self._registries.get(node)
        if registry is None:
            registry = MetricsRegistry(node)
            self._registries[node] = registry
        return registry

    def registries(self) -> Dict[int, MetricsRegistry]:
        return dict(self._registries)

    def inc(self, node: int, name: str, amount: int = 1) -> None:
        self.registry(node).inc(name, amount)

    def gauge(self, node: int, name: str, value: float) -> None:
        self.registry(node).gauge(name, self.sim.now, value)

    # -- spans ---------------------------------------------------------------

    def op_begin(self, node: int, kind: str, op_id: Any,
                 key: Any = None) -> Any:
        if op_id is None:
            return None
        self.spans[op_id] = Span(op_id=op_id, node=node, kind=kind,
                                 key=key, start=self.sim.now)
        self.registry(node).inc(f"ops.{kind}.started")
        return op_id

    def begin_read(self, node: int, key: Any) -> int:
        op_id = -next(self._read_ids)
        self.op_begin(node, "read", op_id, key=key)
        return op_id

    def op_end(self, node: int, op_id: Any, status: str = "ok") -> None:
        span = self.spans.get(op_id)
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        span.status = status
        registry = self.registry(node)
        registry.inc(f"ops.{span.kind}.{status}")
        registry.observe(f"latency.{span.kind}", span.duration)

    # -- segments ------------------------------------------------------------

    def seg_begin(self, node: int, op_id: Any, phase: str,
                  lane: str = LANE_PHASES) -> None:
        if op_id is None:
            return
        self._open[(node, op_id, phase)] = (self.sim.now, lane)

    def seg_end(self, node: int, op_id: Any, phase: str, **attrs) -> None:
        opened = self._open.pop((node, op_id, phase), None)
        if opened is None:
            return
        start, lane = opened
        self.seg(node, op_id, phase, start, self.sim.now, lane=lane,
                 **attrs)

    def seg(self, node: int, op_id: Any, phase: str, start: float,
            end: float, lane: str = LANE_PHASES, **attrs) -> None:
        """Record a completed segment directly (e.g. FIFO residency,
        whose start was stamped at enqueue time)."""
        if op_id is None:
            return
        self.segments.append(Segment(
            op_id=op_id, node=node, phase=phase, start=start, end=end,
            lane=lane, attrs=freeze_attrs(attrs)))
        self.registry(node).observe(f"phase.{phase}", end - start)

    # -- instants ------------------------------------------------------------

    def instant(self, node: int, name: str, op_id: Any = None,
                **attrs) -> None:
        self.instants.append(Instant(
            time=self.sim.now, node=node, name=name, op_id=op_id,
            attrs=freeze_attrs(attrs)))

    def fault(self, node: int, name: str, **attrs) -> None:
        """A fault-injection point event plus its fabric-wide counter."""
        self.instant(node, f"fault.{name}", **attrs)
        self.registry(FABRIC_NODE).inc(f"faults.{name}")

    def net_packet(self, endpoint: str, kind: str, size_bytes: int) -> None:
        """Account one fabric packet (called from ``Port.send`` /
        ``send_broadcast``): counters only, deliberately cheap."""
        registry = self.registry(FABRIC_NODE)
        registry.inc("net.packets")
        registry.inc("net.bytes", size_bytes)
        registry.inc(f"net.packets.{kind}")

    # -- queries -------------------------------------------------------------

    def spans_for(self, kind: Optional[str] = None,
                  status: Optional[str] = None) -> List[Span]:
        out: Iterable[Span] = self.spans.values()
        if kind is not None:
            out = [s for s in out if s.kind == kind]
        if status is not None:
            out = [s for s in out if s.status == status]
        return list(out)

    def segments_for(self, op_id: Any = None, node: Optional[int] = None,
                     phase: Optional[str] = None) -> List[Segment]:
        out: Iterable[Segment] = self.segments
        if op_id is not None:
            out = [s for s in out if s.op_id == op_id]
        if node is not None:
            out = [s for s in out if s.node == node]
        if phase is not None:
            out = [s for s in out if s.phase == phase]
        return list(out)

    def instants_for(self, name: Optional[str] = None,
                     node: Optional[int] = None) -> List[Instant]:
        out: Iterable[Instant] = self.instants
        if name is not None:
            out = [i for i in out if i.name == name]
        if node is not None:
            out = [i for i in out if i.node == node]
        return list(out)

    def open_segments(self) -> List[Tuple[int, Any, str]]:
        """(node, op_id, phase) keys of begun-but-unfinished segments."""
        return list(self._open)

    def phase_summaries(self) -> Dict[str, Summary]:
        """Exact (non-bucketed) per-phase latency summaries across all
        nodes — the ``repro profile`` breakdown table."""
        recorders: Dict[str, LatencyRecorder] = {}
        for segment in self.segments:
            recorder = recorders.get(segment.phase)
            if recorder is None:
                recorder = recorders[segment.phase] = LatencyRecorder()
            recorder.add(segment.duration)
        return {phase: recorder.summary()
                for phase, recorder in sorted(recorders.items())}

    def nodes(self) -> List[int]:
        seen = {span.node for span in self.spans.values()}
        seen.update(segment.node for segment in self.segments)
        seen.update(instant.node for instant in self.instants)
        seen.update(self._registries)
        return sorted(seen)

    # -- export --------------------------------------------------------------

    def timeline(self) -> str:
        """:func:`repro.obs.export.timeline` of this recorder — the
        per-node swim lanes, reachable through the ``repro.api`` facade
        without an extra export."""
        return timeline(self)

    def to_dict(self) -> dict:
        return {
            "spans": len(self.spans),
            "segments": len(self.segments),
            "instants": len(self.instants),
            "phases": {phase: summary.to_dict()
                       for phase, summary in self.phase_summaries().items()},
            "nodes": {str(node): registry.to_dict()
                      for node, registry
                      in sorted(self._registries.items())},
        }

    def __len__(self) -> int:
        return len(self.spans) + len(self.segments) + len(self.instants)
