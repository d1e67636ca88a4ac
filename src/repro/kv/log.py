"""The persistent (NVM) log of a node.

Persists use "a log structure" (paper §III-B): entries may be appended
**out of timestamp order** — the volatile state is always updated in
increasing TS_WR order, but the NVM can be updated out of order.  That is
acceptable because entries are checked for obsoleteness before being
applied to the durable database (§V-B.4): for each key, only the entry
with the newest timestamp wins.

The log is also the recovery substrate (§III-E): a designated node ships
``entries_since(serial)`` to a re-inserted node, which applies them to its
persistent and volatile state.  The log is never truncated, so it is
also the rollback image when every node (or k of them) loses volatile
state at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.timestamp import Timestamp


@dataclass(frozen=True)
class LogEntry:
    """One durable update record."""

    key: Any
    ts: Timestamp
    value: Any
    #: Scope the write belongs to, for ⟨Lin, Scope⟩ bookkeeping.
    scope: Optional[int] = None
    #: Monotonic append serial, assigned by the log.
    serial: int = -1


class NvmLog:
    """Append-only durable log with obsoleteness-checked application."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self._serial = itertools.count()
        #: Durable database image (what a post-crash recovery would see
        #: after replaying the log).
        self._durable_db: Dict[Any, LogEntry] = {}
        self._applied_upto = 0
        self.obsolete_skipped = 0

    # -- appending ---------------------------------------------------------

    def append(self, key: Any, ts: Timestamp, value: Any,
               scope: Optional[int] = None) -> LogEntry:
        """Durably append an update.  Out-of-order timestamps are allowed."""
        entry = LogEntry(key=key, ts=ts, value=value, scope=scope,
                         serial=next(self._serial))
        self._entries.append(entry)
        return entry

    @property
    def appends(self) -> int:
        """Entries ever appended (the log is never truncated)."""
        return len(self._entries)

    @property
    def peak_length(self) -> int:
        """High-watermark of the entry list: its length, since the log
        never shrinks."""
        return len(self._entries)

    # -- applying (log -> durable database) ------------------------------------

    def apply_all(self) -> int:
        """Apply every unapplied entry to the durable database, skipping
        obsolete entries (older than what the database already holds).
        Returns the number of entries actually applied."""
        applied = 0
        for entry in self._entries[self._applied_upto:]:
            current = self._durable_db.get(entry.key)
            if current is not None and entry.ts <= current.ts:
                self.obsolete_skipped += 1
                continue
            self._durable_db[entry.key] = entry
            applied += 1
        self._applied_upto = len(self._entries)
        return applied

    def durable_value(self, key: Any) -> Any:
        """The durable value of *key* after replaying the whole log."""
        self.apply_all()
        entry = self._durable_db.get(key)
        return entry.value if entry is not None else None

    def __iter__(self):
        return iter(self._entries)

    def durable_ts(self, key: Any) -> Optional[Timestamp]:
        self.apply_all()
        entry = self._durable_db.get(key)
        return entry.ts if entry is not None else None

    # -- recovery support -----------------------------------------------------

    @property
    def last_serial(self) -> int:
        """Serial of the newest entry (-1: empty log)."""
        if self._entries:
            return self._entries[-1].serial
        return -1

    def entries_since(self, serial: int) -> List[LogEntry]:
        """All entries with serial greater than *serial* — the catch-up
        payload shipped to a recovering node (§III-E)."""
        return [e for e in self._entries if e.serial > serial]

    def durable_snapshot(self) -> Dict[Any, LogEntry]:
        """Per-key newest *surviving* entry, reconstructed the way a
        crash restart would: a fold over every log entry.  Deliberately
        NOT the applied-database cache — a corrupted entry must be
        visible here so the rollback checker can catch it."""
        snapshot: Dict[Any, LogEntry] = {}
        for entry in self._entries:
            current = snapshot.get(entry.key)
            if current is None or current.ts < entry.ts:
                snapshot[entry.key] = entry
        return snapshot

    def ingest(self, entries: Iterator[LogEntry]) -> int:
        """Apply a catch-up payload from another node's log.  Entries are
        re-serialized locally; returns how many were ingested."""
        count = 0
        for entry in entries:
            self.append(entry.key, entry.ts, entry.value, entry.scope)
            count += 1
        return count

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries_for(self, key: Any) -> List[LogEntry]:
        return [e for e in self._entries if e.key == key]

    def scope_entries(self, scope: int) -> List[LogEntry]:
        return [e for e in self._entries if e.scope == scope]
