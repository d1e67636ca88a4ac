"""Abstract state-machine specifications of the MINOS protocols (§VI).

This is the analogue of the paper's TLA+ model: the protocol is modelled
at message granularity — each local handler runs atomically, every message
delivery and background step interleaves freely — and the checker explores
all interleavings.  Both MINOS-B and MINOS-O are covered (``offload=True``
adds the vFIFO: volatile applies are deferred to explicit drain steps and
RDLock releases wait for them, matching Fig. 8).

State is a nested tuple (hashable):

``(records, writes, msgs, tasks, persist_txn)``

* ``records[n][k] = (vol, glb_v, glb_d, rdlock, dur, vfifo)`` — the
  Figure 1 metadata of key *k* at node *n*: the three logical timestamps,
  the RDLock owner, the highest locally *persisted* timestamp, and the
  set of timestamps enqueued in the vFIFO but not yet drained (always
  empty for MINOS-B).  Timestamps are ``(version, node_id)`` tuples.
* ``writes[w] = (ts, phase, acks_c, acks_p)`` — coordinator-side state of
  client-write *w* (Table I's ``RcvedACK*_SenderID`` bookkeeping).
* ``msgs`` — the set of in-flight messages ``(type, w, node)``.
* ``tasks`` — pending local steps ``(kind, w, node)``: background
  persists, deferred obsolete-ACKs (the paper's spins), vFIFO drains.
* ``persist_txn`` — the ⟨Lin, Scope⟩ [PERSIST]sc transaction, or None.

The Table I invariants are in :mod:`repro.verify.invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.model import DDPModel, LIN_SYNCH, Persistency
from repro.errors import ConfigError

P = Persistency

NULL = (-1, -1)
INITIAL = (0, 0)

# Write phases.
IDLE = "idle"
MINTED = "minted"
OBS_WAIT = "obs_wait"      # found obsolete; spinning before returning
WAIT = "wait"              # INVs sent, collecting ACKs
RETURNED = "returned"      # REnf: client returned, persistency pending
VALC_SENT = "valc_sent"    # Strict: VAL_Cs out, waiting ACK_Ps
DONE = "done"
OBS_DONE = "obs_done"

FINISHED = (DONE, OBS_DONE)

# Message / task kinds.
INV, ACK, ACK_C, ACK_P, VAL, VAL_C, VAL_P = (
    "INV", "ACK", "ACK_C", "ACK_P", "VAL", "VAL_C", "VAL_P")
PERSIST, ACK_PSC, VAL_PSC = "PERSIST", "ACK_Psc", "VAL_Psc"
T_PERSIST = "persist"      # pending local persist (emits ACK_P if needed)
T_OBS_ACK = "obs_ack"      # pending obsolete-ACK (waits the spin condition)
T_DRAIN = "drain"          # pending vFIFO drain (offload only)

LEGAL_MSG_TYPES = frozenset({INV, ACK, ACK_C, ACK_P, VAL, VAL_C, VAL_P,
                             PERSIST, ACK_PSC, VAL_PSC})


@dataclass(frozen=True)
class WriteDef:
    """One client-write of the checked configuration."""

    coord: int
    key: int = 0


class ProtocolSpec:
    """The MINOS protocol over a small, fixed configuration."""

    def __init__(self, model: DDPModel = LIN_SYNCH, nodes: int = 2,
                 writes: Iterable[WriteDef] = (WriteDef(0), WriteDef(1)),
                 offload: bool = False,
                 persist_coord: Optional[int] = None) -> None:
        self.model = model
        self.n = nodes
        self.writes_def = tuple(writes)
        self.offload = offload
        self.keys = sorted({w.key for w in self.writes_def}) or [0]
        if nodes < 2:
            raise ConfigError("spec needs >= 2 nodes")
        for w in self.writes_def:
            if not 0 <= w.coord < nodes:
                raise ConfigError(f"bad coordinator {w.coord}")
        # A [PERSIST]sc transaction is modelled only for <Lin, Scope>.
        if model.persistency is P.SCOPE:
            self.persist_coord = (persist_coord if persist_coord is not None
                                  else self.writes_def[0].coord)
        else:
            self.persist_coord = None
        from repro.verify.invariants import table1_invariants
        self.invariants = table1_invariants(self)

    # -- state helpers ------------------------------------------------------

    def initial_states(self):
        record = (INITIAL, INITIAL, INITIAL, NULL, INITIAL, frozenset())
        records = tuple(tuple(record for _k in self.keys)
                        for _n in range(self.n))
        writes = tuple((None, IDLE, frozenset(), frozenset())
                       for _w in self.writes_def)
        persist_txn = (IDLE, frozenset()) if self.persist_coord is not None \
            else None
        yield (records, writes, frozenset(), frozenset(), persist_txn)

    def key_index(self, key: int) -> int:
        return self.keys.index(key)

    @staticmethod
    def _set_record(records, n, ki, record):
        node = list(records[n])
        node[ki] = record
        out = list(records)
        out[n] = tuple(node)
        return tuple(out)

    @staticmethod
    def _set_write(writes, w, entry):
        out = list(writes)
        out[w] = entry
        return tuple(out)

    def followers(self, coord: int) -> List[int]:
        return [n for n in range(self.n) if n != coord]

    # -- model policy shorthands ------------------------------------------------

    @property
    def _split(self) -> bool:
        return self.model.split_acks

    def _ack_c_type(self) -> str:
        return ACK if self.model.persistency is P.SYNCHRONOUS else ACK_C

    def _val_c_type(self) -> str:
        p = self.model.persistency
        if p in (P.SYNCHRONOUS, P.READ_ENFORCED):
            return VAL
        return VAL_C

    # -- actions --------------------------------------------------------------------

    def actions(self, state):
        records, writes, msgs, tasks, persist_txn = state
        for w, wdef in enumerate(self.writes_def):
            ts, phase, acks_c, acks_p = writes[w]
            coord, ki = wdef.coord, self.key_index(wdef.key)
            rec = records[coord][ki]
            if phase == IDLE:
                # Mint TS_WR: local volatile version + 1.
                minted = (rec[0][0] + 1, coord)
                yield (f"mint(w{w})",
                       (records, self._set_write(
                           writes, w, (minted, MINTED, acks_c, acks_p)),
                        msgs, tasks, persist_txn))
            elif phase == MINTED:
                yield from self._launch_or_obsolete(state, w)
            elif phase == OBS_WAIT:
                yield from self._return_obsolete(state, w)
            elif phase in (WAIT, RETURNED, VALC_SENT):
                yield from self._coordinator_progress(state, w)
        # Message deliveries.
        for msg in msgs:
            yield from self._deliver(state, msg)
        # Pending local tasks.
        for task in tasks:
            yield from self._run_task(state, task)
        # The [PERSIST]sc transaction.
        if persist_txn is not None:
            yield from self._persist_txn_actions(state)

    # -- coordinator ---------------------------------------------------------------

    def _launch_or_obsolete(self, state, w):
        records, writes, msgs, tasks, persist_txn = state
        wdef = self.writes_def[w]
        coord, ki = wdef.coord, self.key_index(wdef.key)
        ts = writes[w][0]
        rec = records[coord][ki]
        if ts < rec[0]:  # Obsolete(TS_WR): superseded since minting
            yield (f"obsolete(w{w})",
                   (records, self._set_write(
                       writes, w, (ts, OBS_WAIT,) + writes[w][2:]),
                    msgs, tasks, persist_txn))
            return
        vol, glb_v, glb_d, rdlock, dur, vfifo = rec
        new_vol = max(vol, ts)
        new_lock = ts if (rdlock == NULL or rdlock < ts) else rdlock
        if self.offload:
            # Enqueue to the vFIFO; the LLC apply is a later drain step.
            new_rec = (new_vol, glb_v, glb_d, new_lock, dur,
                       vfifo | {ts})
            new_tasks = tasks | {(T_DRAIN, w, coord), (T_PERSIST, w, coord)}
        else:
            new_rec = (new_vol, glb_v, glb_d, new_lock, dur, vfifo)
            new_tasks = tasks | {(T_PERSIST, w, coord)}
        new_msgs = msgs | {(INV, w, f) for f in self.followers(coord)}
        yield (f"launch(w{w})",
               (self._set_record(records, coord, ki, new_rec),
                self._set_write(writes, w, (ts, WAIT,) + writes[w][2:]),
                new_msgs, new_tasks, persist_txn))

    def _spin_ok(self, rec, persistency_spin: bool) -> bool:
        """handleObsolete(): ConsistencySpin (+ PersistencySpin)."""
        vol, glb_v, glb_d = rec[0], rec[1], rec[2]
        if glb_v < vol:
            return False
        if persistency_spin and glb_d < vol:
            return False
        return True

    def _return_obsolete(self, state, w):
        records, writes, msgs, tasks, persist_txn = state
        wdef = self.writes_def[w]
        coord, ki = wdef.coord, self.key_index(wdef.key)
        rec = records[coord][ki]
        if self._spin_ok(rec, self.model.persistency_spin_on_obsolete):
            yield (f"return_obsolete(w{w})",
                   (records, self._set_write(
                       writes, w, (writes[w][0], OBS_DONE,) + writes[w][2:]),
                    msgs, tasks, persist_txn))

    def _coordinator_progress(self, state, w):
        records, writes, msgs, tasks, persist_txn = state
        p = self.model.persistency
        ts, phase, acks_c, acks_p = writes[w]
        wdef = self.writes_def[w]
        coord, ki = wdef.coord, self.key_index(wdef.key)
        followers = set(self.followers(coord))
        rec = records[coord][ki]
        vol, glb_v, glb_d, rdlock, dur, vfifo = rec
        persisted = (T_PERSIST, w, coord) not in tasks
        drained = ts not in vfifo
        val_c = self._val_c_type()

        def release(lock):
            return NULL if lock == ts else lock

        if phase == WAIT and p is P.SYNCHRONOUS:
            if acks_c == followers and persisted and drained:
                new_rec = (vol, max(glb_v, ts), max(glb_d, ts),
                           release(rdlock), dur, vfifo)
                yield (f"finish(w{w})",
                       (self._set_record(records, coord, ki, new_rec),
                        self._set_write(writes, w, (ts, DONE, acks_c, acks_p)),
                        msgs | {(VAL, w, f) for f in followers},
                        tasks, persist_txn))
        elif phase == WAIT and p is P.STRICT:
            if acks_c == followers and drained:
                new_rec = (vol, max(glb_v, ts), glb_d, release(rdlock),
                           dur, vfifo)
                yield (f"val_c(w{w})",
                       (self._set_record(records, coord, ki, new_rec),
                        self._set_write(writes, w,
                                        (ts, VALC_SENT, acks_c, acks_p)),
                        msgs | {(VAL_C, w, f) for f in followers},
                        tasks, persist_txn))
        elif phase == VALC_SENT:  # Strict only
            if acks_p == followers and persisted:
                new_rec = (vol, glb_v, max(glb_d, ts), rdlock, dur, vfifo)
                yield (f"val_p(w{w})",
                       (self._set_record(records, coord, ki, new_rec),
                        self._set_write(writes, w, (ts, DONE, acks_c, acks_p)),
                        msgs | {(VAL_P, w, f) for f in followers},
                        tasks, persist_txn))
        elif phase == WAIT and p is P.READ_ENFORCED:
            if acks_c == followers and drained:
                new_rec = (vol, max(glb_v, ts), glb_d, rdlock, dur, vfifo)
                yield (f"client_return(w{w})",
                       (self._set_record(records, coord, ki, new_rec),
                        self._set_write(writes, w,
                                        (ts, RETURNED, acks_c, acks_p)),
                        msgs, tasks, persist_txn))
        elif phase == RETURNED:  # REnf epilogue
            if acks_p == set(self.followers(coord)) and persisted:
                new_rec = (vol, glb_v, max(glb_d, ts), release(rdlock),
                           dur, vfifo)
                yield (f"vals(w{w})",
                       (self._set_record(records, coord, ki, new_rec),
                        self._set_write(writes, w, (ts, DONE, acks_c, acks_p)),
                        msgs | {(VAL, w, f) for f in followers},
                        tasks, persist_txn))
        elif phase == WAIT:  # EVENTUAL, SCOPE
            if acks_c == followers and drained:
                new_rec = (vol, max(glb_v, ts), glb_d, release(rdlock),
                           dur, vfifo)
                yield (f"val_c(w{w})",
                       (self._set_record(records, coord, ki, new_rec),
                        self._set_write(writes, w, (ts, DONE, acks_c, acks_p)),
                        msgs | {(val_c, w, f) for f in followers},
                        tasks, persist_txn))

    # -- message delivery --------------------------------------------------------------

    def _deliver(self, state, msg):
        mtype, w, node = msg
        if mtype == INV:
            yield from self._deliver_inv(state, msg)
        elif mtype in (ACK, ACK_C, ACK_P):
            yield from self._deliver_ack(state, msg)
        elif mtype in (VAL, VAL_C, VAL_P):
            yield from self._deliver_val(state, msg)
        elif mtype == PERSIST:
            yield from self._deliver_persist(state, msg)
        elif mtype == ACK_PSC:
            yield from self._deliver_ack_psc(state, msg)
        elif mtype == VAL_PSC:
            yield from self._deliver_val_psc(state, msg)

    def _deliver_inv(self, state, msg):
        records, writes, msgs, tasks, persist_txn = state
        _t, w, node = msg
        wdef = self.writes_def[w]
        ki = self.key_index(wdef.key)
        ts = writes[w][0]
        rec = records[node][ki]
        vol, glb_v, glb_d, rdlock, dur, vfifo = rec
        rest = msgs - {msg}
        if ts < vol:
            # Obsolete: the ACK waits for the handleObsolete spins.
            yield (f"inv_obsolete(w{w},n{node})",
                   (records, writes, rest,
                    tasks | {(T_OBS_ACK, w, node)}, persist_txn))
            return
        new_lock = ts if (rdlock == NULL or rdlock < ts) else rdlock
        new_vfifo = vfifo | {ts} if self.offload else vfifo
        new_rec = (max(vol, ts), glb_v, glb_d, new_lock, dur, new_vfifo)
        new_tasks = set(tasks)
        if self.offload:
            new_tasks.add((T_DRAIN, w, node))
        new_msgs = set(rest)
        p = self.model.persistency
        if p is P.SYNCHRONOUS:
            # Persist before the single combined ACK.
            new_tasks.add((T_PERSIST, w, node))
            # The ACK itself is emitted by the persist task.
        else:
            new_msgs.add((self._ack_c_type(), w, node))
            new_tasks.add((T_PERSIST, w, node))
        yield (f"inv_apply(w{w},n{node})",
               (self._set_record(records, node, ki, new_rec),
                writes, frozenset(new_msgs), frozenset(new_tasks),
                persist_txn))

    def _deliver_ack(self, state, msg):
        records, writes, msgs, tasks, persist_txn = state
        mtype, w, src = msg
        ts, phase, acks_c, acks_p = writes[w]
        if mtype in (ACK, ACK_C):
            entry = (ts, phase, acks_c | {src}, acks_p)
        else:
            entry = (ts, phase, acks_c, acks_p | {src})
        yield (f"recv_{mtype.lower()}(w{w},n{src})",
               (records, self._set_write(writes, w, entry),
                msgs - {msg}, tasks, persist_txn))

    def _deliver_val(self, state, msg):
        records, writes, msgs, tasks, persist_txn = state
        mtype, w, node = msg
        wdef = self.writes_def[w]
        ki = self.key_index(wdef.key)
        ts = writes[w][0]
        rec = records[node][ki]
        vol, glb_v, glb_d, rdlock, dur, vfifo = rec
        if mtype in (VAL, VAL_C) and self.offload and ts in vfifo:
            return  # Fig. 8 line 40: wait for the vFIFO drain first
        if mtype == VAL:
            new_rec = (vol, max(glb_v, ts), max(glb_d, ts),
                       NULL if rdlock == ts else rdlock, dur, vfifo)
        elif mtype == VAL_C:
            new_rec = (vol, max(glb_v, ts), glb_d,
                       NULL if rdlock == ts else rdlock, dur, vfifo)
        else:  # VAL_P
            new_rec = (vol, glb_v, max(glb_d, ts), rdlock, dur, vfifo)
        yield (f"recv_{mtype.lower()}(w{w},n{node})",
               (self._set_record(records, node, ki, new_rec), writes,
                msgs - {msg}, tasks, persist_txn))

    # -- local tasks ---------------------------------------------------------------------

    def _run_task(self, state, task):
        records, writes, msgs, tasks, persist_txn = state
        kind, w, node = task
        wdef = self.writes_def[w]
        ki = self.key_index(wdef.key)
        ts = writes[w][0]
        rec = records[node][ki]
        vol, glb_v, glb_d, rdlock, dur, vfifo = rec
        p = self.model.persistency
        if kind == T_PERSIST:
            new_rec = (vol, glb_v, glb_d, rdlock, max(dur, ts), vfifo)
            new_msgs = set(msgs)
            if node != wdef.coord:
                if p is P.SYNCHRONOUS:
                    new_msgs.add((ACK, w, node))
                elif self._split:  # Strict, REnf
                    new_msgs.add((ACK_P, w, node))
            yield (f"persist(w{w},n{node})",
                   (self._set_record(records, node, ki, new_rec), writes,
                    frozenset(new_msgs), tasks - {task}, persist_txn))
        elif kind == T_OBS_ACK:
            if not self._spin_ok(rec, self.model.persistency_spin_on_obsolete):
                return
            new_msgs = set(msgs)
            if p is P.SYNCHRONOUS:
                new_msgs.add((ACK, w, node))
            elif self._split:
                new_msgs.add((ACK_C, w, node))
                new_msgs.add((ACK_P, w, node))
            else:
                new_msgs.add((ACK_C, w, node))
            yield (f"obs_ack(w{w},n{node})",
                   (records, writes, frozenset(new_msgs), tasks - {task},
                    persist_txn))
        elif kind == T_DRAIN:
            if ts not in vfifo:
                return
            # Drain applies (or skips, if obsolete) the LLC update; either
            # way the entry leaves the vFIFO.
            new_rec = (vol, glb_v, glb_d, rdlock, dur, vfifo - {ts})
            yield (f"drain(w{w},n{node})",
                   (self._set_record(records, node, ki, new_rec), writes,
                    msgs, tasks - {task}, persist_txn))

    # -- [PERSIST]sc (Scope only) ------------------------------------------------------------

    def _writes_done(self, writes) -> bool:
        return all(entry[1] in FINISHED for entry in writes)

    def _node_scope_durable(self, state, node: int) -> bool:
        """All writes this node knows about are locally persisted (their
        persist tasks have run) and nothing is pending for it."""
        _records, _writes, msgs, tasks, _pt = state
        for w in range(len(self.writes_def)):
            if (T_PERSIST, w, node) in tasks:
                return False
            if (INV, w, node) in msgs:
                return False
            if (T_OBS_ACK, w, node) in tasks:
                return False
        return True

    def _persist_txn_actions(self, state):
        records, writes, msgs, tasks, persist_txn = state
        phase, acks = persist_txn
        coord = self.persist_coord
        followers = set(self.followers(coord))
        if phase == IDLE:
            # Issue [PERSIST]sc once every write has returned to its client.
            if self._writes_done(writes) and self._node_scope_durable(
                    state, coord):
                yield ("persist_sc",
                       (records, writes,
                        msgs | {(PERSIST, None, f) for f in followers},
                        tasks, (WAIT, acks)))
        elif phase == WAIT:
            if acks == followers:
                yield ("val_psc",
                       (records, writes,
                        msgs | {(VAL_PSC, None, f) for f in followers},
                        tasks, (DONE, acks)))

    def _deliver_persist(self, state, msg):
        records, writes, msgs, tasks, persist_txn = state
        _t, _w, node = msg
        if not self._node_scope_durable(state, node):
            return  # the Follower completes all scope persists first
        yield (f"recv_persist(n{node})",
               (records, writes,
                (msgs - {msg}) | {(ACK_PSC, None, node)},
                tasks, persist_txn))

    def _deliver_ack_psc(self, state, msg):
        records, writes, msgs, tasks, persist_txn = state
        _t, _w, src = msg
        phase, acks = persist_txn
        yield (f"recv_ack_psc(n{src})",
               (records, writes, msgs - {msg}, tasks,
                (phase, acks | {src})))

    def _deliver_val_psc(self, state, msg):
        records, writes, msgs, tasks, persist_txn = state
        yield (f"recv_val_psc(n{msg[2]})",
               (records, writes, msgs - {msg}, tasks, persist_txn))

    # -- termination -------------------------------------------------------------------------

    def is_terminal(self, state) -> bool:
        records, writes, msgs, tasks, persist_txn = state
        if msgs or tasks:
            return False
        if not self._writes_done(writes):
            return False
        if persist_txn is not None and persist_txn[0] != DONE:
            return False
        return True
