"""Scope tracking for the ⟨Lin, Scope⟩ model (paper §II-A, §III-C).

A *scope* is a set of read and write operations named by a scope id.  All
messages of a scoped write are tagged with the scope.  At scope end the
client issues ``[PERSIST]sc``; the response returns only when every write
in the scope has been persisted in every replica.

Each node keeps a :class:`ScopeTracker`: for every scope it has seen, the
set of writes belonging to it and, per write, an event that fires when the
write's local persist completed.  The PERSIST handler waits on all of them
("completes persisting all the WR operations inside scope sc").
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.events import Event
from repro.sim.kernel import Simulator


class ScopeTracker:
    """Per-node bookkeeping of scoped writes and their local persists."""

    __slots__ = ("sim", "_pending", "writes_seen", "persists_completed")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: scope -> list of per-write local-persist-completion events.
        self._pending: Dict[int, List[Event]] = {}
        #: scope -> number of writes ever registered (introspection).
        self.writes_seen: Dict[int, int] = {}
        self.persists_completed: Dict[int, int] = {}

    def register_write(self, scope: int) -> Event:
        """Register a scoped write on this node; returns the event the
        engine must succeed once the write's local persist is durable."""
        done = self.sim.event(label=f"scope{scope}.persist")
        self._pending.setdefault(scope, []).append(done)
        self.writes_seen[scope] = self.writes_seen.get(scope, 0) + 1
        return done

    def wait_scope_durable(self, scope: int):
        """Process helper: wait until every registered write of *scope*
        has persisted locally.  Writes registered *after* this call are
        not covered — the PERSIST orders against writes it follows."""
        events = list(self._pending.get(scope, ()))
        for event in events:
            if not event.triggered:
                yield event
        self.persists_completed[scope] = (
            self.persists_completed.get(scope, 0) + 1)

    def outstanding(self, scope: int) -> int:
        """How many writes of *scope* have not yet persisted locally."""
        return sum(1 for e in self._pending.get(scope, ())
                   if not e.triggered)

    def reset(self) -> None:
        """Crash semantics: in-flight scope bookkeeping is volatile and
        does not survive a node crash (rollback recovery re-seeds state
        from the NVM logs instead)."""
        self._pending.clear()
