"""Durable linearizability, parameterized by persistency model.

After a crash, a node's volatile state is gone and only its NVM log
survives.  What *must* be in that log at the crash instant depends on
the DDP model's persistency half (paper §II-A):

========  ==========================================================
model     durability floor at crash time *t*
========  ==========================================================
Synch     every non-obsolete write acknowledged by *t* — the client
Strict    return waits for the persist on every replica
          (``client_waits_for_persist``), so an ack vouches for
          cluster-wide durability.
REnf      every value *returned by a read* by *t* — the RDLock is held
          until all [ACK_P]s arrive (``rdlock_waits_for_persist``), so
          an observed value is durable everywhere.
Event     no floor: persists are lazy.  Only *validity* applies — the
          surviving log may hold nothing newer or other than versions
          some client actually wrote (prefix survival).
Scope     Event's validity rule, plus scope closure: for every
          completed ``[PERSIST]sc`` on scope *s*, every scope-*s*
          write acknowledged before the persist was *invoked* must
          have survived.
========  ==========================================================

All floors compare per-key :class:`~repro.core.timestamp.Timestamp`
order: a surviving version *newer* than the floor also discharges it
(per-key logs apply in timestamp order, so a newer durable version
supersedes the floored one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.check.history import History
from repro.core.model import DDPModel, Persistency


@dataclass(slots=True)
class DurabilityViolation:
    rule: str
    key: Any
    detail: str
    #: op_ids of the history events that establish the violated
    #: obligation (the evidence; already minimal).
    evidence: Tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"[{self.rule}] key={self.key!r}: {self.detail}"

    def to_dict(self) -> dict:
        return {"rule": self.rule, "key": self.key, "detail": self.detail,
                "evidence": list(self.evidence)}


@dataclass(slots=True)
class DurabilityReport:
    model: str
    crash_time: float
    floors: Dict[Any, Any] = field(default_factory=dict)
    violations: List[DurabilityViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "crash_time": self.crash_time,
            "ok": self.ok,
            "floors": {str(k): [ts.version, ts.node_id]
                       for k, ts in self.floors.items()},
            "violations": [v.to_dict() for v in self.violations],
        }


def _acked_writes(history: History, before: float):
    for op in history.writes():
        if (op.responded is not None and op.responded <= before
                and not op.obsolete and op.ts is not None):
            yield op


def durability_floors(model: DDPModel, history: History,
                      crash_time: float) -> Dict[Any, Any]:
    """Per-key minimum durable timestamp implied by *history* at
    *crash_time*, with the op_ids that established each floor.

    Returns ``{key: (Timestamp, (op_id, ...))}``.
    """
    floors: Dict[Any, Tuple[Any, Tuple[int, ...]]] = {}

    def raise_floor(key: Any, ts: Any, evidence: Tuple[int, ...]) -> None:
        current = floors.get(key)
        if current is None or current[0] < ts:
            floors[key] = (ts, evidence)

    if model.client_waits_for_persist:  # Synch, Strict
        for op in _acked_writes(history, crash_time):
            raise_floor(op.key, op.ts, (op.op_id,))
    if model.persistency is Persistency.READ_ENFORCED:
        for op in history.reads():
            if (op.responded is not None and op.responded <= crash_time
                    and op.value is not None and op.ts is not None):
                raise_floor(op.key, op.ts, (op.op_id,))
    if model.uses_scopes:
        acked = list(_acked_writes(history, crash_time))
        for persist in history.persists():
            if persist.responded is None or persist.responded > crash_time:
                continue
            scope = persist.scope if persist.scope is not None else 0
            for op in acked:
                write_scope = op.scope if op.scope is not None else 0
                if write_scope == scope and op.responded <= persist.invoked:
                    raise_floor(op.key, op.ts,
                                (op.op_id, persist.op_id))
    return floors


def written_versions(history: History) -> Dict[Any, Dict[Any, Any]]:
    """``{key: {ts: value}}`` over completed non-obsolete writes."""
    versions: Dict[Any, Dict[Any, Any]] = {}
    for op in history.writes():
        if not op.pending and not op.obsolete and op.ts is not None:
            versions.setdefault(op.key, {})[op.ts] = op.value
    return versions


def written_values(history: History) -> Dict[Any, set]:
    """``{key: {value, ...}}`` over *all* writes, pending included — a
    pending write's version may have reached NVM even though its
    timestamp never made it back to the client."""
    values: Dict[Any, set] = {}
    for op in history.writes():
        values.setdefault(op.key, set()).add(op.value)
    return values


def check_durability(model: DDPModel, history: History, crash_time: float,
                     snapshot: Dict[Any, Tuple[Any, Any]],
                     initial: Optional[Dict[Any, Any]] = None
                     ) -> DurabilityReport:
    """Check a crashed node's surviving NVM state against the model.

    *snapshot* is ``{key: (ts, value)}`` — the node's durable state
    captured at the crash instant (keys absent survived nothing).
    """
    initial = initial or {}
    report = DurabilityReport(model=model.name, crash_time=crash_time)
    floors = durability_floors(model, history, crash_time)
    report.floors = {key: ts for key, (ts, _) in floors.items()}
    for key, (floor_ts, evidence) in floors.items():
        survived = snapshot.get(key)
        if survived is None or survived[0] < floor_ts:
            have = "nothing" if survived is None else f"ts={survived[0]}"
            report.violations.append(DurabilityViolation(
                rule="durability-floor", key=key, evidence=evidence,
                detail=f"{model.name} requires ts>={floor_ts} durable at "
                       f"crash (t={crash_time:.6g}) but the node "
                       f"retained {have}"))
    versions = written_versions(history)
    values = written_values(history)
    for key, (ts, value) in snapshot.items():
        known = versions.get(key, {})
        if ts in known:
            if known[ts] != value:
                report.violations.append(DurabilityViolation(
                    rule="durability-validity", key=key,
                    detail=f"durable version ts={ts} holds {value!r} but "
                           f"the client wrote {known[ts]!r}"))
        elif (value not in values.get(key, set())
                and value != initial.get(key)):
            report.violations.append(DurabilityViolation(
                rule="durability-validity", key=key,
                detail=f"durable value {value!r} (ts={ts}) was never "
                       f"written by any client"))
    return report


def restore_line(snapshots: Dict[int, Dict[Any, Tuple[Any, Any]]]
                 ) -> Dict[Any, Tuple[Any, Any]]:
    """Fold per-node surviving snapshots into the cluster restore line:
    per-key newest surviving version across every node's NVM.  Mirrors
    the fold :meth:`repro.core.recovery.RecoveryManager.restore_cluster`
    performs, so checking the fold checks the state rollback recovery
    actually restores."""
    line: Dict[Any, Tuple[Any, Any]] = {}
    for node_snapshot in snapshots.values():
        for key, (ts, value) in node_snapshot.items():
            current = line.get(key)
            if current is None or current[0] < ts:
                line[key] = (ts, value)
    return line


def check_rollback(model: DDPModel, history: History, crash_time: float,
                   snapshots: Dict[int, Dict[Any, Tuple[Any, Any]]],
                   initial: Optional[Dict[Any, Any]] = None
                   ) -> DurabilityReport:
    """Rollback legality: which acked writes may a rollback to the
    restore line legally lose under *model*?

    *snapshots* is ``{node_id: {key: (ts, value)}}`` — every node's
    surviving durable state (the fold of its NVM log) at the crash
    instant, covering multi-node and whole-cluster crashes where
    no single victim's log tells the story.  Two rule families:

    ``rollback-floor``
        The model's durability floor (the same per-model table as
        :func:`durability_floors` — Synch/Strict: any acked write;
        REnf: any read-returned version; Scope: scope closure at each
        completed ``[PERSIST]sc``; Event: none) must survive *somewhere*:
        the per-key fold across all nodes must reach the floor, else the
        rollback loses a write the model promised durable.
    ``rollback-validity``
        Prefix survival, per node: every surviving ``(ts, value)`` pair
        on every node must be a version some client actually wrote (or
        the initial image) — a torn NVM write or a bad catch-up ingest
        may never invent or corrupt a version.
    """
    initial = initial or {}
    report = DurabilityReport(model=model.name, crash_time=crash_time)
    line = restore_line(snapshots)
    floors = durability_floors(model, history, crash_time)
    report.floors = {key: ts for key, (ts, _) in floors.items()}
    for key, (floor_ts, evidence) in floors.items():
        survived = line.get(key)
        if survived is None or survived[0] < floor_ts:
            have = "nothing" if survived is None else f"ts={survived[0]}"
            report.violations.append(DurabilityViolation(
                rule="rollback-floor", key=key, evidence=evidence,
                detail=f"{model.name} forbids rolling back past "
                       f"ts={floor_ts} (crash t={crash_time:.6g}) but the "
                       f"cluster-wide restore line retained {have}"))
    versions = written_versions(history)
    values = written_values(history)
    for node_id in sorted(snapshots):
        for key, (ts, value) in snapshots[node_id].items():
            known = versions.get(key, {})
            if ts in known:
                if known[ts] != value:
                    report.violations.append(DurabilityViolation(
                        rule="rollback-validity", key=key,
                        detail=f"node {node_id} survived ts={ts} holding "
                               f"{value!r} but the client wrote "
                               f"{known[ts]!r}"))
            elif (value not in values.get(key, set())
                    and value != initial.get(key)):
                report.violations.append(DurabilityViolation(
                    rule="rollback-validity", key=key,
                    detail=f"node {node_id} survived value {value!r} "
                           f"(ts={ts}) that no client ever wrote"))
    return report


def post_recovery_read_violations(model: DDPModel, history: History,
                                  crash_time: float, reads,
                                  initial: Optional[Dict[Any, Any]] = None
                                  ) -> List[DurabilityViolation]:
    """Values a post-recovery read may not observe.

    *reads* are :class:`HistoryOp` reads issued after the crashed node
    recovered.  A read must never observe a value older than the
    model's durability floor (a lost acked-durable or read-enforced
    write), and never a value no client wrote.
    """
    initial = initial or {}
    floors = durability_floors(model, history, crash_time)
    values = written_values(history)
    violations: List[DurabilityViolation] = []
    for op in reads:
        floor = floors.get(op.key)
        if floor is not None:
            floor_ts, evidence = floor
            if op.value is None or (op.ts is not None
                                    and op.ts < floor_ts):
                violations.append(DurabilityViolation(
                    rule="post-recovery-read", key=op.key,
                    evidence=evidence + (op.op_id,),
                    detail=f"read on {op.client} returned "
                           f"{op.value!r} (ts={op.ts}) but {model.name} "
                           f"guarantees ts>={floor_ts} survived the "
                           f"crash"))
        if (op.value is not None
                and op.value not in values.get(op.key, set())
                and op.value != initial.get(op.key)):
            violations.append(DurabilityViolation(
                rule="post-recovery-read", key=op.key,
                evidence=(op.op_id,),
                detail=f"read on {op.client} returned {op.value!r}, "
                       f"which no client ever wrote"))
    return violations
