"""Distributed Data Persistency model definitions (paper §II-A).

A DDP model pairs a consistency model with a persistency model.  The paper
(and this reproduction) covers Linearizable consistency with five
persistency models, so a :class:`DDPModel` is identified by its
persistency alone and always prints as ``<Lin, ...>``.  The per-model
protocol deltas of Figures 3 and 7 are expressed here as declarative
*policy properties* that both the MINOS-B and MINOS-O engines consult,
instead of five copies of each algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import ConfigError


class Persistency(Enum):
    """Supported persistency models (§II-A)."""

    SYNCHRONOUS = auto()
    STRICT = auto()
    READ_ENFORCED = auto()
    EVENTUAL = auto()
    SCOPE = auto()

    def __str__(self) -> str:
        return _PERSISTENCY_NAMES[self]


_PERSISTENCY_NAMES = {
    Persistency.SYNCHRONOUS: "Synch",
    Persistency.STRICT: "Strict",
    Persistency.READ_ENFORCED: "REnf",
    Persistency.EVENTUAL: "Event",
    Persistency.SCOPE: "Scope",
}


@dataclass(frozen=True, slots=True)
class DDPModel:
    """A ⟨Lin, persistency⟩ pair with its protocol policy."""

    persistency: Persistency

    @property
    def name(self) -> str:
        return f"<Lin, {self.persistency}>"

    # -- policy hooks consulted by the engines ---------------------------------

    @property
    def split_acks(self) -> bool:
        """Whether consistency and persistency use separate ACK_C / ACK_P
        messages.  Synch uses a single combined ACK (Fig. 2); Strict and
        REnf split (Fig. 3 i-iv); Event and Scope only ever acknowledge
        consistency (Fig. 3 v-viii)."""
        return self.persistency in (Persistency.STRICT,
                                    Persistency.READ_ENFORCED)

    @property
    def tracks_persistency(self) -> bool:
        """Whether per-write persistency completion is tracked with
        messages at all (false for Event and Scope, whose writes exchange
        no persistency messages)."""
        return self.persistency in (Persistency.SYNCHRONOUS,
                                    Persistency.STRICT,
                                    Persistency.READ_ENFORCED)

    @property
    def persist_in_critical_path(self) -> bool:
        """Whether the NVM persist happens before the write transaction's
        acknowledgements (Synch and Strict); otherwise it runs in the
        background (Fig. 3: "persisting the update to NVM is performed
        outside of the critical path" for REnf, Event, Scope)."""
        return self.persistency in (Persistency.SYNCHRONOUS,
                                    Persistency.STRICT)

    @property
    def persistency_spin_on_obsolete(self) -> bool:
        """Whether handleObsolete() runs PersistencySpin.  The weak models
        (Event, Scope) skip it — accesses need not stall for outstanding
        persists (§III-C)."""
        return self.persistency in (Persistency.SYNCHRONOUS,
                                    Persistency.STRICT,
                                    Persistency.READ_ENFORCED)

    @property
    def client_waits_for_persist(self) -> bool:
        """Whether the write response to the client is withheld until the
        update is persisted in all replicas (Synch and Strict).  REnf,
        Event and Scope return once all replicas are updated
        (consistency-complete)."""
        return self.persistency in (Persistency.SYNCHRONOUS,
                                    Persistency.STRICT)

    @property
    def rdlock_waits_for_persist(self) -> bool:
        """Whether the RDLock is held until persistency completes, blocking
        reads of not-yet-persisted data.  True for Synch (single combined
        ACK/VAL) and REnf ("when all ACK_Ps are received, the RDLock is
        released"); false for Strict (VAL_C releases it), Event and
        Scope."""
        return self.persistency in (Persistency.SYNCHRONOUS,
                                    Persistency.READ_ENFORCED)

    @property
    def uses_scopes(self) -> bool:
        return self.persistency is Persistency.SCOPE

    def __str__(self) -> str:
        return self.name


LIN_SYNCH = DDPModel(Persistency.SYNCHRONOUS)
LIN_STRICT = DDPModel(Persistency.STRICT)
LIN_RENF = DDPModel(Persistency.READ_ENFORCED)
LIN_EVENT = DDPModel(Persistency.EVENTUAL)
LIN_SCOPE = DDPModel(Persistency.SCOPE)

#: All models evaluated in the paper, in its figure order.
ALL_MODELS = (LIN_SYNCH, LIN_STRICT, LIN_RENF, LIN_EVENT, LIN_SCOPE)

_BY_NAME = {m.name: m for m in ALL_MODELS}
_SHORT = {"synch": LIN_SYNCH, "strict": LIN_STRICT, "renf": LIN_RENF,
          "event": LIN_EVENT, "scope": LIN_SCOPE}


def model_by_name(name: str) -> DDPModel:
    """Look up a model by full (``"<Lin, Synch>"``) or short (``"synch"``)
    name; raises :class:`~repro.errors.ConfigError` with the valid choices
    otherwise."""
    if name in _BY_NAME:
        return _BY_NAME[name]
    low = name.lower()
    if low in _SHORT:
        return _SHORT[low]
    raise ConfigError(f"unknown model {name!r}; choose from "
                      f"{sorted(_SHORT)} or {sorted(_BY_NAME)}")
