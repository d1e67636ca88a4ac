"""Span and segment records: the data model of the observability layer.

A **span** is one client operation (``write`` / ``read`` / ``persist``)
as seen by its coordinator: the interval between the request entering the
engine and control returning to the client.  A **segment** is one
protocol phase inside (or caused by) that operation — lock acquisition,
INV fan-out, ACK wait, log append, VAL broadcast, FIFO residency,
retransmissions — recorded on whichever node performed the phase and
correlated back to the operation by ``op_id``.

``op_id`` is the engine's ``write_id`` for write and [PERSIST]sc
transactions (the protocol already threads it through every INV/ACK/VAL
message, so coordinator and follower segments line up for free).  Reads
have no protocol-level id; the recorder mints them *negative* ids from a
private counter so they can never collide with write ids and never
perturb the simulator's write-id sequence.

An **instant** is a point event (a ``glb_durableTS`` advance, a fault
injection, a VAL re-broadcast) that has a time but no duration.

All three records are plain data: the recorder appends them in event
order and never touches the simulator calendar, which is what keeps the
layer invisible to the calendar-identity tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

#: Lane names used by the exporters to group segments into display rows.
LANE_OPS = "ops"
LANE_PHASES = "phases"
LANE_SNIC = "snic"


def freeze_attrs(attrs: dict) -> Tuple[tuple, ...]:
    """Deterministic (sorted) tuple form of an attribute dict, so two
    runs that record the same attributes compare ``==``."""
    return tuple(sorted(attrs.items()))


@dataclass(slots=True)
class Span:
    """One client operation at its coordinator."""

    op_id: Any
    node: int
    kind: str
    key: Any
    start: float
    end: Optional[float] = None
    #: ``"ok"`` / ``"obsolete"`` once finished; ``None`` while open.
    status: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass(slots=True)
class Segment:
    """One protocol phase, on one node, belonging to one operation."""

    op_id: Any
    node: int
    phase: str
    start: float
    end: float
    lane: str = LANE_PHASES
    attrs: Tuple[tuple, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, name: str, default: Any = None) -> Any:
        for key, value in self.attrs:
            if key == name:
                return value
        return default


@dataclass(slots=True)
class Instant:
    """A point event (no duration)."""

    time: float
    node: int
    name: str
    op_id: Any = None
    attrs: Tuple[tuple, ...] = field(default=())

    def attr(self, name: str, default: Any = None) -> Any:
        for key, value in self.attrs:
            if key == name:
                return value
        return default
