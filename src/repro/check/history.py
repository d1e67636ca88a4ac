"""Invocation/response histories recorded from real cluster runs.

A **history** is the client-visible record of an execution: one
:class:`HistoryOp` per operation with its invocation time, response
time, and outcome.  It is the input to the linearizability checker
(:mod:`repro.check.wgl`) and the durable-linearizability rules
(:mod:`repro.check.durable`).

Recording is strictly observational.  The :class:`RecordingClient`
issues exactly the same ``yield from engine.client_*`` sequence as
:class:`repro.cluster.client.ClosedLoopClient`; the recorder's own
bookkeeping is plain list appends with no simulator interaction, so a
run driven by recording clients schedules the byte-identical event
calendar of an unrecorded run (pinned by
``tests/sim/test_calendar_identity.py``).

Each op carries the protocol ``write_id`` its engine minted (the same
id :mod:`repro.obs` keys spans on), so a failing history event can be
located in an exported Perfetto timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigError
from repro.workloads.ycsb import Op, OpKind

@dataclass(slots=True)
class HistoryOp:
    """One client operation as the client saw it.

    ``responded is None`` marks a *pending* operation: it was invoked
    but the client never saw a response (e.g. its node crashed, or the
    run was cut off).  A pending op may or may not have taken effect;
    the checkers treat it as optional.
    """

    op_id: int
    client: str
    kind: str  # "write" | "read" | "persist"
    key: Optional[Any]
    value: Any
    invoked: float
    responded: Optional[float] = None
    ts: Optional[Any] = None  # repro.core.timestamp.Timestamp
    obsolete: bool = False
    scope: Optional[int] = None
    write_id: Optional[int] = None

    @property
    def pending(self) -> bool:
        return self.responded is None

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "client": self.client,
            "kind": self.kind,
            "key": self.key,
            "value": self.value,
            "invoked": self.invoked,
            "responded": self.responded,
            "ts": (None if self.ts is None
                   else [self.ts.version, self.ts.node_id]),
            "obsolete": self.obsolete,
            "scope": self.scope,
            "write_id": self.write_id,
        }


class History:
    """An ordered collection of :class:`HistoryOp` records."""

    def __init__(self, ops: Optional[List[HistoryOp]] = None) -> None:
        self.ops: List[HistoryOp] = list(ops) if ops else []

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[HistoryOp]:
        return iter(self.ops)

    def append(self, op: HistoryOp) -> None:
        self.ops.append(op)

    @property
    def completed(self) -> List[HistoryOp]:
        return [op for op in self.ops if not op.pending]

    @property
    def pending(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.pending]

    def writes(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.kind == "write"]

    def reads(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.kind == "read"]

    def persists(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.kind == "persist"]

    def per_key(self) -> Dict[Any, List[HistoryOp]]:
        """Reads and writes grouped by key, invocation-ordered.

        [PERSIST]sc ops have no key and no register semantics; they are
        checked by the scope-closure durability rule instead.
        """
        buckets: Dict[Any, List[HistoryOp]] = {}
        for op in self.ops:
            if op.kind == "persist" or op.key is None:
                continue
            buckets.setdefault(op.key, []).append(op)
        for ops in buckets.values():
            ops.sort(key=lambda o: (o.invoked, o.op_id))
        return buckets

    def to_dicts(self) -> List[dict]:
        return [op.to_dict() for op in self.ops]


class HistoryRecorder:
    """Mints history ops and fills in their responses.

    Record-only: every method is plain-Python bookkeeping — no events,
    no timeouts, no engine state — so attaching a recorder can never
    perturb the simulated execution it observes.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.ops: List[HistoryOp] = []

    def invoke(self, client: str, kind: str, key: Any = None,
               value: Any = None, scope: Optional[int] = None) -> HistoryOp:
        op = HistoryOp(op_id=len(self.ops), client=client, kind=kind,
                       key=key, value=value, invoked=self.sim.now,
                       scope=scope)
        self.ops.append(op)
        return op

    def respond_write(self, op: HistoryOp, result) -> None:
        op.responded = self.sim.now
        op.ts = result.ts
        op.obsolete = result.obsolete
        op.write_id = result.write_id

    def respond_read(self, op: HistoryOp, result) -> None:
        op.responded = self.sim.now
        op.value = result.value
        op.ts = result.ts
        op.write_id = result.write_id

    def respond_persist(self, op: HistoryOp) -> None:
        op.responded = self.sim.now

    def history(self) -> History:
        return History(self.ops)


class RecordingClient:
    """A :class:`~repro.cluster.client.ClosedLoopClient` that records
    the invocation/response history of every operation it issues.

    The driver generator mirrors ``ClosedLoopClient.run`` yield-for-
    yield; only the (event-free) recorder calls are added around each
    engine call.
    """

    def __init__(self, cluster, engine, ops: Iterator[Op],
                 recorder: HistoryRecorder, client_idx: int = 0,
                 name: Optional[str] = None) -> None:
        self.cluster = cluster
        self.engine = engine
        self.ops = ops
        self.recorder = recorder
        self.client_idx = client_idx
        self.name = name or f"n{engine.node_id}c{client_idx}"
        self.completed = 0
        self.finished_at: Optional[float] = None

    def run(self):
        for op in self.ops:
            if self.engine.crashed:
                break  # a crashed node's clients stop issuing requests
            if op.kind is OpKind.WRITE:
                rec = self.recorder.invoke(self.name, "write", key=op.key,
                                           value=op.value, scope=op.scope)
                result = yield from self.engine.client_write(
                    op.key, op.value, scope=op.scope, size=op.size)
                self.recorder.respond_write(rec, result)
            elif op.kind is OpKind.READ:
                rec = self.recorder.invoke(self.name, "read", key=op.key)
                result = yield from self.engine.client_read(op.key)
                self.recorder.respond_read(rec, result)
            elif op.kind is OpKind.PERSIST:
                rec = self.recorder.invoke(self.name, "persist",
                                           scope=op.scope)
                yield from self.engine.client_persist(op.scope)
                self.recorder.respond_persist(rec)
            else:  # pragma: no cover - OpKind is closed
                raise ConfigError(f"unknown op kind {op.kind}")
            self.completed += 1
        self.finished_at = self.engine.sim.now
        return self.completed
