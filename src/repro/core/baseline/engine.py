"""MINOS-Baseline: the host-CPU protocol engine (paper §III, Figs. 2-3).

One :class:`BaselineEngine` runs per node.  The same node acts as
Coordinator for locally initiated client-writes and as Follower for remote
ones.  All protocol work (INV/ACK/VAL handling, LLC updates, NVM persists,
lock manipulation) executes on the host cores; the NIC is a dumb pipe
(:class:`repro.hw.nic.BaselineNic`).

Figure 2's line numbers are cited in comments throughout so the code can
be audited against the paper.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import ProtocolConfig
from repro.core.engine import EngineBase, ReadResult, WriteResult, WriteTxn
from repro.core.messages import Message, MsgType
from repro.core.metadata import RecordMeta
from repro.core.model import DDPModel, Persistency
from repro.core.timestamp import NULL_TS, Timestamp
from repro.errors import ProtocolError
from repro.hw.host import Host
from repro.hw.nic import BaselineNic, Envelope
from repro.hw.params import MachineParams
from repro.kv.store import MinosKV
from repro.metrics.stats import Metrics
from repro.sim.kernel import Simulator

P = Persistency


class BaselineEngine(EngineBase):
    """Per-node MINOS-B protocol engine."""

    __slots__ = ("config", "nic", "tolerate_stale_acks", "control_handler",
                 "_handler_names", "_persist_name")

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 model: DDPModel, config: ProtocolConfig, host: Host,
                 nic: BaselineNic, kv: MinosKV, peers, metrics: Metrics) -> None:
        super().__init__(sim, node_id, params, model, host, kv, peers, metrics)
        self.config = config
        self.nic = nic
        self.tolerate_stale_acks = False
        #: Hook for the recovery manager: called with non-protocol payloads.
        self.control_handler = None
        # Process names rendered once here: the dispatch loop spawns a
        # handler per message, and per-spawn f-strings are measurable.
        self._handler_names = {t: f"n{node_id}.h.{t.name}" for t in MsgType}
        self._persist_name = f"n{node_id}.persist"
        sim.spawn(self._dispatch_loop(), name=f"n{node_id}.dispatch")

    # ======================================================================
    # Message deposit helpers (host send queue -> NIC)
    # ======================================================================

    def record_size(self, msg_or_size) -> int:
        """Resolve a message's (or explicit) payload size in bytes."""
        size = getattr(msg_or_size, "size", msg_or_size)
        return size if size else self.params.record_size

    def _deposit_fanout(self, msg: Message, size: int):
        """Deposit *msg* for every peer: one dest-mapped envelope when
        batching is on, per-destination envelopes otherwise.  Charges the
        host CPU per marshalled message (eRPC tx path)."""
        sends = 1 if self.config.batching else len(self.peers)
        yield from self.host.compute(
            self.params.host.msg_send_cost * sends)
        if self.config.batching:
            self.nic.host_deposit(Envelope(
                payload=msg, size_bytes=size, src_node=self.node_id,
                dests=list(self.peers)))
        else:
            for peer in self.peers:
                self.nic.host_deposit(Envelope(
                    payload=msg, size_bytes=size, src_node=self.node_id,
                    dst=peer))

    def _deposit_invs(self, msg: Message):
        yield from self._deposit_fanout(msg, self.record_size(msg))
        self.metrics.counters.invs_sent += len(self.peers)

    def _deposit_vals(self, type: MsgType, key: Any, ts: Timestamp,
                      scope: Optional[int], write_id: int,
                      persist_id: Optional[int] = None):
        msg = self.stamp(Message(type=type, key=key, ts=ts, src=self.node_id,
                                 scope=scope, persist_id=persist_id,
                                 write_id=write_id))
        yield from self._deposit_fanout(msg, self.params.control_size)
        self.metrics.counters.vals_sent += len(self.peers)
        if self.robustness is not None and self.robustness.val_resends > 0:
            # VAL-family messages carry no acknowledgement, so loss cannot
            # be detected; re-broadcast blindly (receivers are idempotent).
            self.sim.spawn(self._val_rebroadcast(msg),
                           name=f"n{self.node_id}.valrtx.w{write_id}")

    def _val_rebroadcast(self, msg: Message):
        policy = self.robustness
        delay = policy.base_timeout
        for _ in range(policy.val_resends):
            yield self.sim.timeout(delay)
            self.metrics.counters.val_rebroadcasts += 1
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, msg.write_id,
                                   "val_rebroadcast")
            yield from self._deposit_fanout(msg, self.params.control_size)
            if self.obs is not None:
                self.obs.seg_end(self.node_id, msg.write_id,
                                 "val_rebroadcast", type=msg.type.name)
            delay = policy.next_timeout(delay)

    def _resend(self, msg: Message, targets):
        """Retransmit path: re-deposit *msg* (same seq) per target."""
        size = (self.record_size(msg) if msg.type is MsgType.INV
                else self.params.control_size)
        yield from self.host.compute(
            self.params.host.msg_send_cost * len(targets))
        for peer in targets:
            self.nic.host_deposit(Envelope(
                payload=msg, size_bytes=size, src_node=self.node_id,
                dst=peer))

    def _send_control(self, dst: int, msg: Message):
        """Deposit a single control message (ACK family) for *dst*,
        charging the host CPU for the marshalling."""
        yield from self.host.compute(self.params.host.msg_send_cost)
        self.nic.host_deposit(Envelope(
            payload=msg, size_bytes=self.params.control_size,
            src_node=self.node_id, dst=dst))
        self.metrics.counters.acks_sent += 1

    def _reply(self, msg: Message, ack_type: MsgType):
        """Send an ACK-family reply to *msg*, recording it so a duplicate
        delivery of *msg* can be answered verbatim (robustness mode)."""
        reply = msg.reply(ack_type, self.node_id)
        self.record_reply(msg, reply)
        yield from self._send_control(msg.src, reply)

    # ======================================================================
    # Coordinator: client-write (Fig. 2 left, Fig. 3 deltas)
    # ======================================================================

    def client_write(self, key: Any, value: Any,
                     scope: Optional[int] = None,
                     size: Optional[int] = None):
        """Process a client write as Coordinator.  Returns control (and a
        :class:`WriteResult`) at the model's client-return point.

        *size* overrides the machine's default record size for this
        write's payload (LLC/NVM/wire costs all scale with it)."""
        started = self.sim.now
        # Minted unconditionally (not under the obs guard): attaching the
        # recorder must not shift the write ids an unobserved run assigns.
        write_id = self.sim.next_write_id()
        self.metrics.counters.writes_started += 1
        if self.obs is not None:
            self.obs.op_begin(self.node_id, "write", write_id, key=key)
            self.obs.seg_begin(self.node_id, write_id, "lock_acquire")
        if self.model.uses_scopes and scope is None:
            scope = 0  # default scope for unscoped writes under <Lin, Scope>
        params = self.params
        meta = self.kv.meta(key)
        yield from self.host.compute(params.host.request_overhead)  # line 4
        ts = self.issue_ts(key)
        yield from self.host.sync_op()
        if meta.is_obsolete(ts):  # line 5
            yield from self.handle_obsolete(meta)  # line 6
            self.metrics.counters.writes_obsolete += 1
            if self.obs is not None:
                self.obs.seg_end(self.node_id, write_id, "lock_acquire",
                                 obsolete=True)
                self.obs.op_end(self.node_id, write_id, status="obsolete")
            return WriteResult(key, ts, True, self.sim.now - started,
                               write_id=write_id)
        yield from self.host.sync_op()  # line 8: Snatch RDLock(k)
        if meta.snatch_rdlock(ts):
            self.metrics.counters.rdlock_snatches += 1
        yield meta.wrlock.acquire()  # line 9: spin for WRLock
        yield from self.host.sync_op()
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "lock_acquire")
        txn: Optional[WriteTxn] = None
        if not meta.is_obsolete(ts):  # line 10: final timestamp check
            msg = self.stamp(Message(type=MsgType.INV, key=key, ts=ts,
                                     src=self.node_id, value=value,
                                     scope=scope, size=size,
                                     write_id=write_id))
            txn = self.register_txn(key, ts, msg.write_id)
            txn.inv_deposited_at = self.sim.now
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, write_id, "inv_fanout")
            yield from self._deposit_invs(msg)  # line 11: send INVs
            if self.obs is not None:
                self.obs.seg_end(self.node_id, write_id, "inv_fanout",
                                 peers=len(self.peers))
            self.watch_retransmits(txn, msg, self._resend)
            yield self.host.llc.access(self.record_size(size))  # line 12
            self.kv.volatile_write(key, value, ts)
            meta.wrlock.release()  # line 13
        else:
            meta.wrlock.release()  # line 15
            yield from self.handle_obsolete(meta)  # line 16
            self.metrics.counters.writes_obsolete += 1
            if self.obs is not None:
                self.obs.op_end(self.node_id, write_id, status="obsolete")
            return WriteResult(key, ts, True, self.sim.now - started,
                               write_id=write_id)
        # line 17-18: INVs were sent; persist the update to NVM.
        if self.model.persist_in_critical_path:  # Synch, Strict
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, write_id, "log_append")
            yield self.host.nvm.persist(self.record_size(size))
            if self.obs is not None:
                self.obs.seg_end(self.node_id, write_id, "log_append")
            self._local_persist(key, value, ts, scope, txn)
        else:  # REnf, Event, Scope: persist in the background (Fig. 3)
            scope_event = (self.scope_tracker.register_write(scope)
                           if scope is not None else None)
            self.sim.spawn(
                self._background_persist(key, value, ts, scope, txn,
                                         scope_event,
                                         size=self.record_size(size)),
                name=self._persist_name)
        yield from self._coordinator_finish(txn, meta, key, ts, scope)
        latency = self.record_write_metrics(txn, started)
        if self.obs is not None:
            self.obs.op_end(self.node_id, write_id)
        return WriteResult(key, ts, False, latency, write_id=write_id)

    def _persist_record(self, key, value, ts, scope) -> None:
        """Logical durability point: append to the NVM log."""
        self.kv.persist(key, value, ts, scope=scope)
        self.metrics.counters.persists += 1

    def _local_persist(self, key, value, ts, scope, txn: WriteTxn) -> None:
        self._persist_record(key, value, ts, scope)
        if not txn.local_persist_done.triggered:
            txn.local_persist_done.succeed()

    def _background_persist(self, key, value, ts, scope, txn: WriteTxn,
                            scope_event, size: Optional[int] = None) -> None:
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, txn.write_id, "log_append")
        yield self.host.nvm.persist(size or self.params.record_size)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, txn.write_id, "log_append",
                             background=True)
        self._local_persist(key, value, ts, scope, txn)
        if scope_event is not None and not scope_event.triggered:
            scope_event.succeed()

    def _coordinator_finish(self, txn: WriteTxn, meta: RecordMeta,
                            key: Any, ts: Timestamp,
                            scope: Optional[int]):
        """Steps e/f of Figs. 2-3: wait for ACKs, release the RDLock, send
        VALs, return to the client — in the model's order."""
        p = self.model.persistency
        obs = self.obs
        wid = txn.write_id
        if p is P.SYNCHRONOUS:
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait")
            yield txn.all_acks  # line 19: spin until all ACKs received
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK")
            meta.set_glb_volatile(ts)
            meta.set_glb_durable(ts)
            self.obs_durable(key, meta)
            yield from self.host.sync_op()
            meta.release_rdlock(ts)  # lines 20-21 (no-op unless owner)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "val_broadcast")
            yield from self._deposit_vals(MsgType.VAL, key, ts, scope, txn.write_id)
            if obs is not None:
                obs.seg_end(self.node_id, wid, "val_broadcast", kind="VAL")
            self.retire_txn(txn.write_id)
        elif p is P.STRICT:
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait")
            yield txn.all_ack_cs  # step e: spin for ACK_Cs
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_C")
            meta.set_glb_volatile(ts)
            yield from self.host.sync_op()
            meta.release_rdlock(ts)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "val_broadcast")
            yield from self._deposit_vals(MsgType.VAL_C, key, ts, scope, txn.write_id)
            if obs is not None:
                obs.seg_end(self.node_id, wid, "val_broadcast", kind="VAL_C")
                obs.seg_begin(self.node_id, wid, "ack_wait")
            yield txn.all_ack_ps  # step f: spin for ACK_Ps
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_P")
            meta.set_glb_durable(ts)
            self.obs_durable(key, meta)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "val_broadcast")
            yield from self._deposit_vals(MsgType.VAL_P, key, ts, scope, txn.write_id)
            if obs is not None:
                obs.seg_end(self.node_id, wid, "val_broadcast", kind="VAL_P")
            self.retire_txn(txn.write_id)
        elif p is P.READ_ENFORCED:
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait")
            yield txn.all_ack_cs  # step e: return to client after ACK_Cs
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_C")
            meta.set_glb_volatile(ts)
            self.sim.spawn(self._renf_finish(txn, meta, key, ts, scope),
                           name=self._persist_name)
        else:  # EVENTUAL, SCOPE (Fig. 3 v-viii)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait")
            yield txn.all_ack_cs
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_C")
            meta.set_glb_volatile(ts)
            yield from self.host.sync_op()
            meta.release_rdlock(ts)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "val_broadcast")
            yield from self._deposit_vals(MsgType.VAL_C, key, ts, scope, txn.write_id)
            if obs is not None:
                obs.seg_end(self.node_id, wid, "val_broadcast", kind="VAL_C")
            self.retire_txn(txn.write_id)

    def _renf_finish(self, txn: WriteTxn, meta: RecordMeta, key: Any,
                     ts: Timestamp, scope: Optional[int]):
        """REnf epilogue (runs after the client got its response): once all
        ACK_Ps arrive and the local persist is durable, release the RDLock
        and send the (single-type) VALs."""
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, txn.write_id, "ack_wait")
        yield self.sim.all_of([txn.all_ack_ps, txn.local_persist_done])
        if self.obs is not None:
            self.obs.seg_end(self.node_id, txn.write_id, "ack_wait",
                             kind="ACK_P")
        meta.set_glb_durable(ts)
        self.obs_durable(key, meta)
        yield from self.host.sync_op()
        meta.release_rdlock(ts)
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, txn.write_id, "val_broadcast")
        yield from self._deposit_vals(MsgType.VAL, key, ts, scope, txn.write_id)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, txn.write_id, "val_broadcast",
                             kind="VAL")
        self.retire_txn(txn.write_id)

    # ======================================================================
    # Coordinator: client-read (paper §III-D)
    # ======================================================================

    def client_read(self, key: Any):
        """Reads are satisfied locally; they stall only while the record's
        RDLock is taken."""
        sim = self.sim
        started = sim.now
        params = self.params
        host = self.host
        op_id = None
        if self.obs is not None:
            op_id = self.obs.begin_read(self.node_id, key)
        # The two core holds below are Host.compute's body written out:
        # a read is ~5 calendar events, so a generator frame per hold is
        # a measurable share of a read-only workload.
        d = params.host.request_overhead
        if d > 0:
            yield host.cores.request()
            try:
                yield sim.sleep(d)
                host.busy_time += d
            finally:
                host.cores.release()
        meta = self.kv.meta(key)
        if not meta.rdlock_free:
            self.metrics.counters.read_stalls += 1
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, op_id, "rdlock_wait")
            yield from meta.wait_rdlock_free()
            if self.obs is not None:
                self.obs.seg_end(self.node_id, op_id, "rdlock_wait")
        d = params.host.kv_lookup * self.kv.lookup_probes(key)
        if d > 0:
            yield host.cores.request()
            try:
                yield sim.sleep(d)
                host.busy_time += d
            finally:
                host.cores.release()
        yield host.llc.access(params.record_size)
        versioned = self.kv.volatile_read(key)
        latency = self.record_read_metrics(started)
        if self.obs is not None:
            self.obs.op_end(self.node_id, op_id,
                            status="ok" if versioned is not None else "miss")
        if versioned is None:
            return ReadResult(key, None, NULL_TS, latency, write_id=op_id)
        return ReadResult(key, versioned.value, versioned.ts, latency,
                          write_id=op_id)

    # ======================================================================
    # Coordinator: [PERSIST]sc (paper §III-C, Fig. 3 vii)
    # ======================================================================

    def client_persist(self, scope: int):
        """The ⟨Lin, Scope⟩ [PERSIST]sc transaction as Coordinator."""
        if not self.model.uses_scopes:
            raise ProtocolError(
                f"client_persist requires <Lin, Scope>, not {self.model}")
        started = self.sim.now
        write_id = self.sim.next_write_id()  # unconditional: see client_write
        if self.obs is not None:
            self.obs.op_begin(self.node_id, "persist", write_id, key=scope)
        yield from self.host.compute(self.params.host.request_overhead)
        persist_id = self.sim.next_persist_id()
        msg = self.stamp(Message(type=MsgType.PERSIST, key=None, ts=NULL_TS,
                                 src=self.node_id, scope=scope,
                                 persist_id=persist_id, write_id=write_id))
        txn = self.register_txn(None, NULL_TS, msg.write_id)
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, write_id, "inv_fanout")
        yield from self._deposit_fanout(msg, self.params.control_size)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "inv_fanout",
                             kind="PERSIST")
        self.watch_retransmits(txn, msg, self._resend)
        # Complete all local persists belonging to the scope, plus the
        # [PERSIST]sc bookkeeping record itself.
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, write_id, "scope_wait")
        yield from self.scope_tracker.wait_scope_durable(scope)
        yield self.host.nvm.persist(self.params.control_size)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "scope_wait")
            self.obs.seg_begin(self.node_id, write_id, "ack_wait")
        yield txn.all_ack_ps  # spin for [ACK_P]sc from every Follower
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "ack_wait",
                             kind="ACK_P")
            self.obs.seg_begin(self.node_id, write_id, "val_broadcast")
        yield from self._deposit_vals(MsgType.VAL_P, None, NULL_TS, scope,
                           txn.write_id, persist_id=persist_id)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "val_broadcast",
                             kind="VAL_P")
        self.retire_txn(txn.write_id)
        self.metrics.counters.scope_persist_txns += 1
        self.metrics.persist_latency.add(self.sim.now - started)
        if self.obs is not None:
            self.obs.op_end(self.node_id, write_id)
        return self.sim.now - started

    # ======================================================================
    # Follower side (Fig. 2 right, Fig. 3 deltas)
    # ======================================================================

    def _dispatch_loop(self):
        """Demultiplex messages arriving at the host from the NIC."""
        while True:
            packet = yield self.host.inbox.get()
            if self.crashed:
                continue
            payload = packet.payload
            envelope = payload if isinstance(payload, Envelope) else None
            message = envelope.payload if envelope else payload
            if isinstance(message, Message):
                self.sim.spawn(self._handle_message(message),
                               name=self._handler_names[message.type])
            elif self.control_handler is not None:
                self.control_handler(message)

    def _handle_message(self, msg: Message):
        yield from self.host.compute(self.params.host.msg_handler_cost)
        if msg.type.is_ack:
            self._handle_ack(msg)
        elif msg.type in (MsgType.INV, MsgType.PERSIST):
            replies = self.dedup_inv(msg)
            if replies is not None:
                yield from self._answer_duplicate(msg, replies)
            elif msg.type is MsgType.PERSIST:
                yield from self._follower_persist(msg)
            else:
                yield from self._follower_inv(msg)
        elif msg.type.is_val:
            yield from self._follower_val(msg)
        else:
            raise ProtocolError(f"unhandled message {msg}")

    def _answer_duplicate(self, msg: Message, replies):
        """A duplicate INV/PERSIST delivery: re-send the ACKs the original
        produced, verbatim.  Re-running the handler instead would deadlock
        under Strict/REnf — ``_ack_obsolete``'s consistency spin waits for
        a VAL the coordinator cannot send until it gets the very ACK being
        re-requested."""
        self.metrics.counters.dedup_inv_hits += 1
        if self.obs is not None:
            self.obs.instant(self.node_id, "duplicate_suppressed",
                             op_id=msg.write_id, type=msg.type.name,
                             resent=len(replies))
        for reply in list(replies):
            yield from self._send_control(msg.src, reply)

    def _handle_ack(self, msg: Message) -> None:
        txn = self.txn(msg.write_id)
        if txn is None:
            if self.tolerate_stale_acks:
                return
            raise ProtocolError(f"ACK for unknown write: {msg}")
        if not txn.on_ack(msg, strict=self.robustness is None):
            self.metrics.counters.dedup_ack_hits += 1

    def _ack_obsolete(self, meta: RecordMeta, msg: Message):
        """Fig. 2 lines 27-30 / Fig. 3 letters h-j: the received write is
        obsolete; spin as the model requires, then acknowledge as if the
        write was done."""
        p = self.model.persistency
        if p in (P.STRICT, P.READ_ENFORCED):
            yield from meta.consistency_spin()
            yield from self._reply(msg, MsgType.ACK_C)
            yield from meta.persistency_spin()
            yield from self._reply(msg, MsgType.ACK_P)
        elif p is P.SYNCHRONOUS:
            yield from self.handle_obsolete(meta)
            yield from self._reply(msg, MsgType.ACK)
        else:  # EVENTUAL, SCOPE: no persistency tracking
            yield from meta.consistency_spin()
            yield from self._reply(msg, MsgType.ACK_C)

    def _follower_inv(self, msg: Message):
        """Fig. 2 lines 26-40 (Follower INV handling)."""
        handling_started = self.sim.now
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "inv_handle")
        params = self.params
        meta = self.kv.meta(msg.key)
        p = self.model.persistency
        if meta.is_obsolete(msg.ts):  # line 27
            yield from self._ack_obsolete(meta, msg)  # lines 28-29
            self.metrics.record_follower_handling(
                msg.write_id, self.sim.now - handling_started)
            if self.obs is not None:
                self.obs.seg_end(self.node_id, msg.write_id, "inv_handle",
                                 obsolete=True)
            return  # line 30
        yield from self.host.sync_op()  # line 31: Snatch RDLock
        if meta.snatch_rdlock(msg.ts):
            self.metrics.counters.rdlock_snatches += 1
        yield meta.wrlock.acquire()  # line 32
        yield from self.host.sync_op()
        if not meta.is_obsolete(msg.ts):  # line 33
            yield self.host.llc.access(self.record_size(msg))  # line 34
            self.kv.volatile_write(msg.key, msg.value, msg.ts)
            meta.wrlock.release()  # line 35
            yield from self._follower_ack_updated(msg)  # lines 39-40
        else:
            meta.wrlock.release()  # line 37
            yield from self._ack_obsolete(meta, msg)  # line 38 + ACK
        self.metrics.record_follower_handling(
            msg.write_id, self.sim.now - handling_started)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "inv_handle")

    def _follower_ack_updated(self, msg: Message):
        """Persist and acknowledge after a successful LLC update, in the
        model's order (Fig. 2 lines 39-40 and the Fig. 3 deltas)."""
        params = self.params
        p = self.model.persistency
        if p is P.SYNCHRONOUS:
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, msg.write_id, "log_append")
            yield self.host.nvm.persist(self.record_size(msg))  # line 39
            if self.obs is not None:
                self.obs.seg_end(self.node_id, msg.write_id, "log_append")
            self._persist_record(msg.key, msg.value, msg.ts, msg.scope)
            yield from self._reply(msg, MsgType.ACK)  # line 40
        elif p is P.STRICT:
            yield from self._reply(msg, MsgType.ACK_C)
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, msg.write_id, "log_append")
            yield self.host.nvm.persist(self.record_size(msg))
            if self.obs is not None:
                self.obs.seg_end(self.node_id, msg.write_id, "log_append")
            self._persist_record(msg.key, msg.value, msg.ts, msg.scope)
            yield from self._reply(msg, MsgType.ACK_P)
        elif p is P.READ_ENFORCED:
            yield from self._reply(msg, MsgType.ACK_C)
            self.sim.spawn(self._renf_follower_persist(msg),
                           name=self._persist_name)
        else:  # EVENTUAL, SCOPE
            yield from self._reply(msg, MsgType.ACK_C)
            scope_event = (self.scope_tracker.register_write(msg.scope)
                           if msg.scope is not None else None)
            self.sim.spawn(self._eventual_persist(msg, scope_event),
                           name=self._persist_name)

    def _renf_follower_persist(self, msg: Message):
        """REnf: persist off the critical path, then send ACK_P."""
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "log_append")
        yield self.host.nvm.persist(self.record_size(msg))
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "log_append",
                             background=True)
        self._persist_record(msg.key, msg.value, msg.ts, msg.scope)
        yield from self._reply(msg, MsgType.ACK_P)

    def _eventual_persist(self, msg: Message, scope_event):
        """Event/Scope: persist eventually; no persistency messages."""
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "log_append")
        yield self.host.nvm.persist(self.record_size(msg))
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "log_append",
                             background=True)
        self._persist_record(msg.key, msg.value, msg.ts, msg.scope)
        if scope_event is not None and not scope_event.triggered:
            scope_event.succeed()

    def _follower_val(self, msg: Message):
        """Fig. 2 lines 41-44 and the per-model VAL variants."""
        if msg.key is None:
            # [VAL_P]sc of a PERSIST transaction: terminates it (Fig. 3
            # viii); nothing further to do at the Follower.
            return
        meta = self.kv.meta(msg.key)
        if msg.type is MsgType.VAL:  # Synch / REnf: single VAL covers both
            meta.set_glb_volatile(msg.ts)
            meta.set_glb_durable(msg.ts)
            self.obs_durable(msg.key, meta)
        elif msg.type is MsgType.VAL_C:
            meta.set_glb_volatile(msg.ts)
        elif msg.type is MsgType.VAL_P:
            meta.set_glb_durable(msg.ts)
            self.obs_durable(msg.key, meta)
        if msg.type in (MsgType.VAL, MsgType.VAL_C):
            yield from self.host.sync_op()
            meta.release_rdlock(msg.ts)  # lines 42-43 (owner check inside)

    def _follower_persist(self, msg: Message):
        """[PERSIST]sc at a Follower (Fig. 3 viii): complete persisting all
        WR operations inside the scope plus the request itself, then send
        [ACK_P]sc."""
        yield from self.scope_tracker.wait_scope_durable(msg.scope)
        yield self.host.nvm.persist(self.params.control_size)
        yield from self._reply(msg, MsgType.ACK_P)
