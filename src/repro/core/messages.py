"""Protocol messages (paper §II-A and Table I type check 4a).

The legal message vocabulary is::

    INV, ACK, ACK_C, ACK_P, VAL, VAL_C, VAL_P,
    [INV]sc, [ACK_C]sc, [ACK_P]sc, [VAL_C]sc, [VAL_P]sc, [PERSIST]sc

Scoped variants are the same :class:`MsgType` with a non-``None``
``scope`` field.  ``BATCHED_ACK`` is the MINOS-O SNIC→host completion
notification (§V-B.3) — it never crosses the network.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Any, Optional

from repro.core.timestamp import Timestamp

_write_ids = itertools.count(1)


def next_write_id() -> int:
    """Fallback write-id mint for :class:`Message` objects built outside
    a simulation (tests, ad-hoc construction).  The engines never use
    it: they mint ids from :meth:`repro.sim.kernel.Simulator.next_write_id`
    so identical runs produce identical id sequences no matter what else
    ran in the process — this module-global counter keeps no cross-run
    promise."""
    return next(_write_ids)


class MsgType(Enum):
    INV = auto()
    ACK = auto()
    ACK_C = auto()
    ACK_P = auto()
    VAL = auto()
    VAL_C = auto()
    VAL_P = auto()
    PERSIST = auto()
    #: SNIC -> host only: "all ACKs in, your write is complete".
    BATCHED_ACK = auto()


# ``is_ack`` / ``is_val`` are plain member attributes, not properties:
# every received message checks them, and a property + tuple-membership
# test per message is measurable at that frequency.
for _member in MsgType:
    _member.is_ack = _member.name in ("ACK", "ACK_C", "ACK_P")
    _member.is_val = _member.name in ("VAL", "VAL_C", "VAL_P")
del _member


#: Message types that may travel between nodes (Table I, check 4a).
NETWORK_LEGAL = frozenset({
    MsgType.INV, MsgType.ACK, MsgType.ACK_C, MsgType.ACK_P,
    MsgType.VAL, MsgType.VAL_C, MsgType.VAL_P, MsgType.PERSIST,
})


@dataclass(slots=True)
class Message:
    """One protocol message.

    ``ts`` is the client-write's TS_WR, carried by every message of that
    transaction (§III-A).  ``value`` rides on INV only.  ``scope`` marks
    the ⟨Lin, Scope⟩ variants; ``persist_id`` identifies a [PERSIST]sc
    transaction and its [ACK_P]sc / [VAL_P]sc responses.
    """

    type: MsgType
    key: Any
    ts: Timestamp
    src: int
    value: Any = None
    scope: Optional[int] = None
    persist_id: Optional[int] = None
    #: Payload size in bytes; None means the machine's default record
    #: size.  Set per-write to model variable-sized records.
    size: Optional[int] = None
    #: Per-sender sequence number stamping the message's *logical*
    #: identity under fault injection: a retransmission reuses the
    #: original's seq so receivers can deduplicate, and an ACK carries
    #: the seq of the request it answers.  ``None`` on the fault-free
    #: path (robustness disabled).
    seq: Optional[int] = None
    write_id: int = field(default_factory=next_write_id)

    @property
    def is_scoped(self) -> bool:
        return self.scope is not None

    def reply(self, type: MsgType, src: int) -> "Message":
        """A response to this message: same transaction identity, new
        type and sender, no payload."""
        return Message(type=type, key=self.key, ts=self.ts, src=src,
                       scope=self.scope, persist_id=self.persist_id,
                       size=self.size, seq=self.seq, write_id=self.write_id)

    def __str__(self) -> str:
        sc = f"[sc{self.scope}]" if self.is_scoped else ""
        return f"{self.type.name}{sc}(k={self.key}, {self.ts}, from n{self.src})"
