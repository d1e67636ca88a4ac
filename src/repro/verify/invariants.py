"""The Table I correctness conditions, as predicates over spec states.

Concurrency checks (row 1) — absence of deadlock and livelock — are
performed structurally by :class:`~repro.verify.checker.ModelChecker`.
This module supplies rows 2-4 plus two semantic guarantees implied by the
model definitions (§II-A).

Two of the paper's conditions (2c and 3b) assert that the *global*
timestamps never get ahead of the protocol: we state them precisely as
"``glb_volatileTS`` (resp. ``glb_durableTS``) may only ever equal the
timestamp of a write whose consistency (resp. persistency) ACKs have all
been received".  The agreement conditions (2a and 3a) are checked at
per-key quiescence (no in-flight message or pending local step touching
the key), which is when "read-unlocked in all nodes" is stable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.core.model import Persistency

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.spec import ProtocolSpec

P = Persistency


def table1_invariants(spec: "ProtocolSpec") -> List[Tuple[str, callable]]:
    """Build the invariant list for *spec* (consulted by the checker)."""
    from repro.verify import spec as S

    n_nodes = spec.n
    writes_def = spec.writes_def
    p = spec.model.persistency

    def followers_of(w: int) -> frozenset:
        return frozenset(spec.followers(writes_def[w].coord))

    def consistency_complete(writes, w: int) -> bool:
        return writes[w][2] == followers_of(w)

    def persistency_complete(writes, w: int) -> bool:
        if p is P.SYNCHRONOUS:
            return writes[w][2] == followers_of(w)  # combined ACKs
        if p in (P.STRICT, P.READ_ENFORCED):
            return writes[w][3] == followers_of(w)
        return False  # Event/Scope do not track per-write persistency

    def writes_to_key(ki: int):
        return [w for w, wd in enumerate(writes_def)
                if spec.key_index(wd.key) == ki]

    def key_quiescent(state, ki: int) -> bool:
        records, writes, msgs, tasks, persist_txn = state
        for w in writes_to_key(ki):
            if writes[w][1] not in (S.IDLE, S.MINTED, S.DONE, S.OBS_DONE):
                return False
            if any(m[1] == w for m in msgs):
                return False
            if any(t[1] == w for t in tasks):
                return False
        return True

    def all_unlocked(records, ki: int) -> bool:
        return all(records[n][ki][3] == S.NULL for n in range(n_nodes))

    # ---- 2. Consistency checks -------------------------------------------

    def inv_2a_agreement(state) -> bool:
        """When a record is read-unlocked in all nodes (at key quiescence),
        volatileTS and glb_volatileTS agree across all nodes."""
        records, *_ = state
        for ki in range(len(spec.keys)):
            if not key_quiescent(state, ki):
                continue
            if not all_unlocked(records, ki):
                continue
            vols = {records[n][ki][0] for n in range(n_nodes)}
            glbs = {records[n][ki][1] for n in range(n_nodes)}
            if len(vols) != 1 or len(glbs) != 1:
                return False
        return True

    def inv_2b_volatile_when_acked(state) -> bool:
        """When all consistency ACKs for a write were received, every
        node's volatileTS covers the write."""
        records, writes, *_ = state
        for w, wd in enumerate(writes_def):
            ts = writes[w][0]
            if ts is None or not consistency_complete(writes, w):
                continue
            ki = spec.key_index(wd.key)
            if writes[w][1] in (S.OBS_WAIT, S.OBS_DONE):
                continue
            if any(records[n][ki][0] < ts for n in range(n_nodes)):
                return False
        return True

    def inv_2c_glb_volatile_only_acked(state) -> bool:
        """glb_volatileTS only ever equals the TS of a write whose
        consistency ACKs have all been received (precise form of 2c)."""
        records, writes, *_ = state
        acked = {writes[w][0] for w in range(len(writes_def))
                 if writes[w][0] is not None
                 and consistency_complete(writes, w)}
        for n in range(n_nodes):
            for ki in range(len(spec.keys)):
                glb_v = records[n][ki][1]
                if glb_v != S.INITIAL and glb_v not in acked:
                    return False
        return True

    # ---- 3. Persistency checks ----------------------------------------------

    def inv_3a_durable_agreement(state) -> bool:
        """At key quiescence with all RDLocks free, glb_durableTS agrees
        across all nodes."""
        records, _writes, _msgs, _tasks, persist_txn = state
        if persist_txn is not None and persist_txn[0] != S.DONE:
            return True  # scope persist still outstanding
        for ki in range(len(spec.keys)):
            if not key_quiescent(state, ki):
                continue
            if not all_unlocked(records, ki):
                continue
            if len({records[n][ki][2] for n in range(n_nodes)}) != 1:
                return False
        return True

    def inv_3b_glb_durable_only_acked(state) -> bool:
        """glb_durableTS only ever equals the TS of a write whose
        persistency ACKs have all been received (precise form of 3b)."""
        records, writes, *_ = state
        acked = {writes[w][0] for w in range(len(writes_def))
                 if writes[w][0] is not None
                 and persistency_complete(writes, w)}
        for n in range(n_nodes):
            for ki in range(len(spec.keys)):
                glb_d = records[n][ki][2]
                if glb_d != S.INITIAL and glb_d not in acked:
                    return False
        return True

    # ---- Semantic guarantees of the model definitions (§II-A) -----------------

    def inv_durability_on_return(state) -> bool:
        """Synch/Strict: when the write response has returned to the
        client, the update is persisted in every replica node."""
        if p not in (P.SYNCHRONOUS, P.STRICT):
            return True
        records, writes, *_ = state
        for w, wd in enumerate(writes_def):
            ts, phase = writes[w][0], writes[w][1]
            if phase != S.DONE or ts is None:
                continue
            ki = spec.key_index(wd.key)
            if any(records[n][ki][4] < ts for n in range(n_nodes)):
                return False
        return True

    def inv_visibility_on_return(state) -> bool:
        """Linearizability: when the write response has returned, every
        volatile replica covers the write."""
        records, writes, *_ = state
        returned = (S.DONE, S.RETURNED, S.VALC_SENT)
        for w, wd in enumerate(writes_def):
            ts, phase = writes[w][0], writes[w][1]
            if ts is None or phase not in returned:
                continue
            ki = spec.key_index(wd.key)
            if any(records[n][ki][0] < ts for n in range(n_nodes)):
                return False
        return True

    def inv_read_enforcement(state) -> bool:
        """Synch/REnf: a readable record (RDLock free) never exposes a
        value whose write is not persistency-complete.  Strict is
        deliberately excluded: it decouples consistency and persistency,
        releasing the RDLock at VAL_C (§II-A lists only ⟨Lin, Synch⟩ and
        ⟨Lin, REnf⟩ as requiring persistency completion before reads)."""
        if p not in (P.SYNCHRONOUS, P.READ_ENFORCED):
            return True
        records, writes, *_ = state
        ts_to_w = {writes[w][0]: w for w in range(len(writes_def))
                   if writes[w][0] is not None}
        for n in range(n_nodes):
            for ki in range(len(spec.keys)):
                vol, _gv, _gd, rdlock, _dur, vfifo = records[n][ki]
                if rdlock != S.NULL or vol == S.INITIAL:
                    continue
                w = ts_to_w.get(vol)
                if w is not None and not persistency_complete(writes, w):
                    return False
        return True

    # ---- 4. Type checks ----------------------------------------------------------

    def ts_legal(ts, allow_null: bool = False) -> bool:
        if ts == S.NULL:
            return allow_null
        version, node = ts
        return version >= 0 and 0 <= node < n_nodes

    def inv_4a_messages_legal(state) -> bool:
        _records, _writes, msgs, _tasks, _pt = state
        return all(m[0] in S.LEGAL_MSG_TYPES and 0 <= m[2] < n_nodes
                   for m in msgs)

    def inv_4b_metadata_legal(state) -> bool:
        records, *_ = state
        for n in range(n_nodes):
            for ki in range(len(spec.keys)):
                vol, glb_v, glb_d, rdlock, dur, vfifo = records[n][ki]
                if not (ts_legal(vol) and ts_legal(glb_v) and
                        ts_legal(glb_d) and ts_legal(dur) and
                        ts_legal(rdlock, allow_null=True)):
                    return False
                if any(not ts_legal(e) for e in vfifo):
                    return False
        return True

    def inv_4c_bookkeeping_legal(state) -> bool:
        """RcvedACK*_SenderID sets contain only legal follower ids."""
        _records, writes, *_ = state
        for w in range(len(writes_def)):
            allowed = followers_of(w)
            if not (writes[w][2] <= allowed and writes[w][3] <= allowed):
                return False
        return True

    return [
        ("2a: TS agreement when read-unlocked", inv_2a_agreement),
        ("2b: volatileTS covers acked writes", inv_2b_volatile_when_acked),
        ("2c: glb_volatileTS only after all ACK_C",
         inv_2c_glb_volatile_only_acked),
        ("3a: glb_durableTS agreement when read-unlocked",
         inv_3a_durable_agreement),
        ("3b: glb_durableTS only after all ACK_P",
         inv_3b_glb_durable_only_acked),
        ("durability on client return", inv_durability_on_return),
        ("visibility on client return", inv_visibility_on_return),
        ("read enforcement", inv_read_enforcement),
        ("4a: legal messages", inv_4a_messages_legal),
        ("4b: legal record metadata", inv_4b_metadata_legal),
        ("4c: legal ACK bookkeeping", inv_4c_bookkeeping_legal),
    ]
