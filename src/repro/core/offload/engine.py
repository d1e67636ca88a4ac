"""MINOS-Offload: the SmartNIC protocol engine (paper §V, Figs. 6-8).

One :class:`OffloadEngine` runs per node and contains both halves of the
offloaded design:

* **Host side** — the short prologue of Fig. 8 (lines 4-14): obsoleteness
  check and RDLock snatch on *coherent* metadata, deposit of the (batched)
  INV over PCIe, then a wait for the completion notification from the SNIC.
  Reads also run on the host, checking the coherent RDLock.
* **SNIC side** — everything else (Fig. 8 lines 15-42): forwarding /
  broadcasting INVs, vFIFO + dFIFO enqueues instead of WRLock'd LLC/NVM
  writes, ACK aggregation, RDLock release after the vFIFO drain, VALs.

The engine honours the ablation flags (Fig. 12): with ``batching`` off the
host deposits per-destination INVs (pipelined over PCIe) and the SNIC
forwards every follower ACK to the host; with ``broadcast`` off the SNIC
serializes fan-out messages one at a time (and must *unpack* batched INVs
first, the §VIII-D penalty).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.engine import EngineBase, ReadResult, WriteResult, WriteTxn
from repro.core.messages import Message, MsgType
from repro.core.metadata import RecordMeta
from repro.core.model import DDPModel, Persistency
from repro.core.timestamp import NULL_TS, Timestamp
from repro.errors import ProtocolError
from repro.hw.host import Host
from repro.hw.nic import Envelope
from repro.hw.params import MachineParams
from repro.hw.smartnic import FifoEntry, SmartNic
from repro.kv.store import MinosKV
from repro.metrics.stats import Metrics
from repro.sim.kernel import Simulator

P = Persistency


class OffloadEngine(EngineBase):
    """Per-node MINOS-O protocol engine (host + SNIC halves)."""

    __slots__ = ("config", "snic", "tolerate_stale_acks", "control_handler",
                 "_pending_entries", "_coord_seen", "_snic_handler_names",
                 "_hosth_name", "_vtail_name", "_dtail_name", "_cinv_name",
                 "_cper_name", "_clocal_name", "_dq_name", "_fdq_name",
                 "_done_name", "_notify_name")

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 model: DDPModel, config: ProtocolConfig, host: Host,
                 snic: SmartNic, kv: MinosKV, peers,
                 metrics: Metrics) -> None:
        super().__init__(sim, node_id, params, model, host, kv, peers, metrics)
        if not config.offload:
            raise ProtocolError("OffloadEngine requires config.offload")
        self.config = config
        self.snic = snic
        self.tolerate_stale_acks = False
        self.control_handler = None
        #: Follower-side vFIFO entries awaiting their VAL: (key, ts) -> entry.
        self._pending_entries: Dict[Tuple[Any, Timestamp], FifoEntry] = {}
        #: Coordinator SNIC-side per-write state (created on first INV).
        self._coord_seen: set = set()
        # Process names rendered once here: these spawn per message /
        # per write, and per-spawn f-strings are measurable.
        self._snic_handler_names = {t: f"n{node_id}.snic.{t.name}"
                                    for t in MsgType}
        self._hosth_name = f"n{node_id}.hosth"
        self._vtail_name = f"n{node_id}.vtail"
        self._dtail_name = f"n{node_id}.dtail"
        self._cinv_name = f"n{node_id}.snic.cinv"
        self._cper_name = f"n{node_id}.snic.cper"
        self._clocal_name = f"n{node_id}.snic.clocal"
        self._dq_name = f"n{node_id}.snic.dq"
        self._fdq_name = f"n{node_id}.snic.fdq"
        self._done_name = f"n{node_id}.snic.done"
        self._notify_name = f"n{node_id}.snic.notify"
        snic.start_drains(self._vfifo_apply, self._dfifo_apply)
        sim.spawn(self._host_dispatch_loop(), name=f"n{node_id}.host.dispatch")
        sim.spawn(self._snic_host_loop(), name=f"n{node_id}.snic.hostq")
        sim.spawn(self._snic_net_loop(), name=f"n{node_id}.snic.netq")

    # ======================================================================
    # FIFO drain callbacks (paper §V-B.4)
    # ======================================================================

    def _vfifo_apply(self, entry: FifoEntry):
        """Drain one vFIFO entry: skip if obsolete, else DMA it into the
        host LLC ("a DMA operation pushes the update to the host's LLC").
        The worker is held for the DMA; the LLC write overlaps."""
        meta = self.kv.meta(entry.key)
        if self.obs is not None:
            self.obs.seg(self.node_id, entry.op_id, "vfifo_residency",
                         entry.enqueued_at, self.sim.now, lane="snic",
                         skipped=entry.ts < meta.volatile_ts)
        if entry.ts < meta.volatile_ts:
            entry.skipped = True
            self.metrics.counters.vfifo_skips += 1
            self.snic.vfifo_skipped += 1
            entry.drained.succeed()
            return
        yield self.snic.dma_to_host(entry.size_bytes)
        self.sim.spawn(self._vfifo_apply_tail(entry),
                       name=self._vtail_name)

    def _vfifo_apply_tail(self, entry: FifoEntry):
        yield self.host.llc.access(entry.size_bytes)
        self.kv.volatile_write(entry.key, entry.value, entry.ts)
        entry.drained.succeed()

    def _dfifo_apply(self, entry: FifoEntry):
        """Drain one dFIFO entry: DMA it to the host NVM log.  The entry
        is already durable (the dFIFO is NVM), so this is timing only; the
        logical log append happened at enqueue time."""
        yield self.snic.dma_to_host(entry.size_bytes)
        self.sim.spawn(self._dfifo_apply_tail(entry),
                       name=self._dtail_name)

    def _dfifo_apply_tail(self, entry: FifoEntry):
        yield self.host.nvm.persist(entry.size_bytes)
        entry.drained.succeed()

    def _durable_enqueue(self, entry: FifoEntry):
        """Enqueue into the dFIFO; the update is durable once this
        returns, so the logical NVM-log append happens here."""
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, entry.op_id, "dfifo_enqueue",
                              lane="snic")
        yield from self.snic.dfifo_enqueue(entry)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, entry.op_id, "dfifo_enqueue",
                             bytes=entry.size_bytes)
        self.kv.persist(entry.key, entry.value, entry.ts, scope=entry.scope)
        self.metrics.counters.persists += 1

    # ======================================================================
    # Host side (Fig. 8 lines 4-14)
    # ======================================================================

    def record_size(self, msg_or_size) -> int:
        """Resolve a message's (or explicit) payload size in bytes."""
        size = getattr(msg_or_size, "size", msg_or_size)
        return size if size else self.params.record_size

    def client_write(self, key: Any, value: Any,
                     scope: Optional[int] = None,
                     size: Optional[int] = None):
        """Host half of a client write; returns at the client-return point
        (arrival of the completion notification from the SNIC).

        *size* overrides the machine's default record size for this
        write's payload."""
        started = self.sim.now
        # Minted unconditionally (not under the obs guard): attaching the
        # recorder must not shift the write ids an unobserved run assigns.
        write_id = self.sim.next_write_id()
        self.metrics.counters.writes_started += 1
        if self.obs is not None:
            self.obs.op_begin(self.node_id, "write", write_id, key=key)
            self.obs.seg_begin(self.node_id, write_id, "lock_acquire")
        if self.model.uses_scopes and scope is None:
            scope = 0
        meta = self.kv.meta(key)
        yield from self.host.compute(self.params.host.request_overhead)
        yield self.snic.coherent_access()  # read volatileTS, mint TS_WR
        ts = self.issue_ts(key)
        if meta.is_obsolete(ts):  # line 5
            yield from self.handle_obsolete(meta)
            self.metrics.counters.writes_obsolete += 1
            if self.obs is not None:
                self.obs.seg_end(self.node_id, write_id, "lock_acquire",
                                 obsolete=True)
                self.obs.op_end(self.node_id, write_id, status="obsolete")
            return WriteResult(key, ts, True, self.sim.now - started,
                               write_id=write_id)
        yield self.snic.coherent_access()  # line 8: Snatch RDLock (CAS)
        if meta.snatch_rdlock(ts):
            self.metrics.counters.rdlock_snatches += 1
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "lock_acquire")
        if meta.is_obsolete(ts):  # line 11 (obsolete after the snatch)
            yield from self.handle_obsolete(meta)  # line 12
            self.metrics.counters.writes_obsolete += 1
            if self.obs is not None:
                self.obs.op_end(self.node_id, write_id, status="obsolete")
            return WriteResult(key, ts, True, self.sim.now - started,
                               write_id=write_id)
        msg = self.stamp(Message(type=MsgType.INV, key=key, ts=ts,
                                 src=self.node_id, value=value, scope=scope,
                                 size=size, write_id=write_id))
        txn = self.register_txn(key, ts, msg.write_id)
        txn.inv_deposited_at = self.sim.now
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, write_id, "inv_fanout")
        yield from self._host_deposit_invs(msg)  # line 10: send INV(s) to SNIC
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "inv_fanout",
                             peers=len(self.peers),
                             batched=self.config.batching)
            self.obs.seg_begin(self.node_id, write_id, "snic_wait")
        yield txn.host_complete  # line 14: spin for the batched ACK
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "snic_wait")
        latency = self.record_write_metrics(txn, started)
        if self.obs is not None:
            self.obs.op_end(self.node_id, write_id)
        return WriteResult(key, ts, False, latency, write_id=write_id)

    def _host_deposit_invs(self, msg: Message):
        size = self.record_size(msg)
        sends = 1 if self.config.batching else len(self.peers)
        yield from self.host.compute(
            self.params.host.msg_send_cost * sends)
        if self.config.batching:
            self.snic.host_deposit(Envelope(
                payload=msg, size_bytes=size, src_node=self.node_id,
                dests=list(self.peers)))
        else:
            for peer in self.peers:
                self.snic.host_deposit(Envelope(
                    payload=msg, size_bytes=size, src_node=self.node_id,
                    dst=peer))
        self.metrics.counters.invs_sent += len(self.peers)

    def client_read(self, key: Any):
        """Reads run on the host; the RDLock check touches coherent
        metadata (§V-B.2)."""
        started = self.sim.now
        params = self.params
        op_id = None
        if self.obs is not None:
            op_id = self.obs.begin_read(self.node_id, key)
        yield from self.host.compute(params.host.request_overhead)
        meta = self.kv.meta(key)
        yield self.snic.coherent_access()
        if not meta.rdlock_free:
            self.metrics.counters.read_stalls += 1
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, op_id, "rdlock_wait")
            yield from meta.wait_rdlock_free()
            if self.obs is not None:
                self.obs.seg_end(self.node_id, op_id, "rdlock_wait")
        probes = self.kv.lookup_probes(key)
        yield from self.host.compute(params.host.kv_lookup * probes)
        yield self.host.llc.access(params.record_size)
        versioned = self.kv.volatile_read(key)
        latency = self.record_read_metrics(started)
        if self.obs is not None:
            self.obs.op_end(self.node_id, op_id,
                            status="ok" if versioned is not None else "miss")
        if versioned is None:
            return ReadResult(key, None, NULL_TS, latency, write_id=op_id)
        return ReadResult(key, versioned.value, versioned.ts, latency,
                          write_id=op_id)

    def client_persist(self, scope: int):
        """Host half of [PERSIST]sc: deposit to the SNIC and wait."""
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
        yield from self.host.compute(self.params.host.msg_send_cost)
        self.snic.host_deposit(Envelope(
            payload=msg, size_bytes=self.params.control_size,
            src_node=self.node_id, dests=list(self.peers)))
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "inv_fanout",
                             kind="PERSIST")
            self.obs.seg_begin(self.node_id, write_id, "snic_wait")
        yield txn.host_complete
        if self.obs is not None:
            self.obs.seg_end(self.node_id, write_id, "snic_wait")
        self.metrics.counters.scope_persist_txns += 1
        self.metrics.persist_latency.add(self.sim.now - started)
        if self.obs is not None:
            self.obs.op_end(self.node_id, write_id)
        return self.sim.now - started

    def _host_dispatch_loop(self):
        """Handle PCIe messages from the SNIC: completion notifications
        and (without batching) forwarded per-follower ACKs."""
        while True:
            packet = yield self.host.inbox.get()
            if self.crashed:
                continue
            message = packet.payload
            if isinstance(message, Message):
                self.sim.spawn(self._host_handle(message),
                               name=self._hosth_name)
            elif self.control_handler is not None:
                self.control_handler(message)

    def _host_handle(self, msg: Message):
        yield from self.host.compute(self.params.host.msg_handler_cost)
        if msg.type is MsgType.BATCHED_ACK:
            txn = self.txn(msg.write_id)
            if txn is not None and not txn.host_complete.triggered:
                txn.host_complete.succeed()
        # Forwarded individual ACKs (non-batched mode) cost the handler
        # time charged above; completion rides on the BATCHED_ACK-typed
        # final notification in both modes.

    # ======================================================================
    # SNIC side: coordinator (Fig. 8 lines 15-24)
    # ======================================================================

    def _snic_host_loop(self):
        """Process envelopes the host deposited over PCIe."""
        while True:
            packet = yield self.snic.from_host.get()
            if self.crashed:
                continue
            envelope: Envelope = packet.payload
            msg: Message = envelope.payload
            if msg.type is MsgType.INV:
                self.sim.spawn(self._snic_coord_inv(envelope, msg),
                               name=self._cinv_name)
            elif msg.type is MsgType.PERSIST:
                self.sim.spawn(self._snic_coord_persist(envelope, msg),
                               name=self._cper_name)
            else:
                raise ProtocolError(f"unexpected host envelope: {msg}")

    def _snic_coord_inv(self, envelope: Envelope, msg: Message):
        """Fig. 8 lines 15-17: forward/broadcast the INV(s) and, once per
        write, enqueue the local update into the vFIFO and dFIFO."""
        yield from self.snic.compute(self.params.snic.msg_handler_cost)
        size = self.record_size(msg)
        if envelope.is_batched:
            if self.snic.broadcast:
                self.snic.send_multi(envelope.dests, msg, size)  # line 16
            else:
                # §VIII-D: a batched message must be unpacked first.
                yield from self.snic.compute(
                    self.params.snic.batch_unpack_per_dest *
                    len(envelope.dests))
                self.snic.send_multi(envelope.dests, msg, size)
        else:
            self.snic.send_message(envelope.dst, msg, size)
        if msg.write_id in self._coord_seen:
            return  # non-batched: only the first INV does local work
        self._coord_seen.add(msg.write_id)
        txn = self.txn(msg.write_id)
        if txn is None:
            raise ProtocolError(f"coordinator SNIC saw unregistered {msg}")
        # Retransmit timer runs SNIC-side: the SNIC owns the ACK
        # bookkeeping, so it re-sends towards peers with missing ACKs.
        self.watch_retransmits(txn, msg, self._snic_resend)
        self.sim.spawn(self._snic_coord_local(txn, msg),
                       name=self._clocal_name)

    def _snic_coord_local(self, txn: WriteTxn, msg: Message):
        """Line 17 (enqueue to vFIFO and dFIFO) plus the completion logic
        of lines 21-24, with per-model variations (Fig. 7)."""
        meta = self.kv.meta(msg.key)
        size = self.record_size(msg)
        entry = self.snic.make_entry(msg.key, msg.ts, msg.value, size,
                                     scope=msg.scope, op_id=msg.write_id)
        meta.set_volatile(msg.ts)  # the enqueue is the serialization point
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "vfifo_enqueue",
                               lane="snic")
        yield from self.snic.vfifo_enqueue(entry)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "vfifo_enqueue",
                             bytes=size)
        if not txn.local_enqueued.triggered:
            txn.local_enqueued.succeed()
        dentry = self.snic.make_entry(msg.key, msg.ts, msg.value, size,
                                      scope=msg.scope, op_id=msg.write_id)
        scope_event = (self.scope_tracker.register_write(msg.scope)
                       if msg.scope is not None else None)
        if self.model.persist_in_critical_path:  # Synch, Strict
            yield from self._durable_enqueue(dentry)
            self._finish_local_persist(txn, scope_event)
        else:
            self.sim.spawn(
                self._background_durable(txn, dentry, scope_event),
                name=self._dq_name)
        self.sim.spawn(self._snic_coord_completion(txn, meta, entry, msg),
                       name=self._done_name)

    def _finish_local_persist(self, txn: WriteTxn, scope_event) -> None:
        if not txn.local_persist_done.triggered:
            txn.local_persist_done.succeed()
        if scope_event is not None and not scope_event.triggered:
            scope_event.succeed()

    def _background_durable(self, txn: WriteTxn, dentry: FifoEntry,
                            scope_event):
        yield from self._durable_enqueue(dentry)
        self._finish_local_persist(txn, scope_event)

    def _client_done_event(self, txn: WriteTxn):
        """When the SNIC may notify the host that the client write is
        complete: the model's ACK condition, plus the local vFIFO enqueue
        (volatile replica ordered) and — for Synch/Strict — the local
        durable enqueue."""
        needed = [txn.local_enqueued]
        p = self.model.persistency
        if p is P.SYNCHRONOUS:
            needed += [txn.all_acks, txn.local_persist_done]
        elif p is P.STRICT:
            needed += [txn.all_ack_cs, txn.all_ack_ps,
                       txn.local_persist_done]
        else:
            needed.append(txn.all_ack_cs)
        return self.sim.all_of(needed)

    def _notify_host_complete(self, txn: WriteTxn, msg: Message):
        """Send the completion notification (the batched ACK of Fig. 8
        line 20) to the host once the client condition holds."""
        yield self._client_done_event(txn)
        done = Message(type=MsgType.BATCHED_ACK, key=msg.key, ts=msg.ts,
                       src=self.node_id, scope=msg.scope,
                       persist_id=msg.persist_id, write_id=msg.write_id)
        self.snic.send_to_host(done, self.params.control_size)

    def _snic_coord_completion(self, txn: WriteTxn, meta: RecordMeta,
                               entry: FifoEntry, msg: Message):
        """Release the RDLock and send the VALs in the model's order
        (Fig. 8 lines 21-24; Fig. 7 timelines for the other models)."""
        self.sim.spawn(self._notify_host_complete(txn, msg),
                       name=self._notify_name)
        key, ts, scope = msg.key, msg.ts, msg.scope
        p = self.model.persistency
        obs = self.obs
        wid = txn.write_id
        if p is P.SYNCHRONOUS:
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait", lane="snic")
            yield self.sim.all_of([txn.all_acks, entry.drained])  # line 21
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK")
            meta.set_glb_volatile(ts)
            meta.set_glb_durable(ts)
            self.obs_durable(key, meta)
            yield self.snic.coherent_access()
            meta.release_rdlock(ts)  # lines 22-23
            self._snic_send_vals(MsgType.VAL, key, ts, scope, txn.write_id)
        elif p is P.STRICT:
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait", lane="snic")
            yield self.sim.all_of([txn.all_ack_cs, entry.drained])
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_C")
            meta.set_glb_volatile(ts)
            yield self.snic.coherent_access()
            meta.release_rdlock(ts)
            self._snic_send_vals(MsgType.VAL_C, key, ts, scope, txn.write_id)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait", lane="snic")
            yield txn.all_ack_ps
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_P")
            meta.set_glb_durable(ts)
            self.obs_durable(key, meta)
            self._snic_send_vals(MsgType.VAL_P, key, ts, scope, txn.write_id)
        elif p is P.READ_ENFORCED:
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait", lane="snic")
            yield self.sim.all_of([txn.all_ack_cs, entry.drained])
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_C")
            meta.set_glb_volatile(ts)
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait", lane="snic")
            yield self.sim.all_of([txn.all_ack_ps, txn.local_persist_done])
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_P")
            meta.set_glb_durable(ts)
            self.obs_durable(key, meta)
            yield self.snic.coherent_access()
            meta.release_rdlock(ts)
            self._snic_send_vals(MsgType.VAL, key, ts, scope, txn.write_id)
        else:  # EVENTUAL, SCOPE
            if obs is not None:
                obs.seg_begin(self.node_id, wid, "ack_wait", lane="snic")
            yield self.sim.all_of([txn.all_ack_cs, entry.drained])
            if obs is not None:
                obs.seg_end(self.node_id, wid, "ack_wait", kind="ACK_C")
            meta.set_glb_volatile(ts)
            yield self.snic.coherent_access()
            meta.release_rdlock(ts)
            self._snic_send_vals(MsgType.VAL_C, key, ts, scope, txn.write_id)
        # Retire only after the host has seen the completion notification:
        # the BATCHED_ACK handler looks the transaction up by write_id.
        if not txn.host_complete.triggered:
            yield txn.host_complete
        self._coord_seen.discard(txn.write_id)
        self.retire_txn(txn.write_id)

    def _snic_resend(self, msg: Message, targets):
        """Retransmit path: the SNIC re-sends *msg* (same seq) to exactly
        the peers whose ACKs are missing."""
        size = (self.record_size(msg) if msg.type is MsgType.INV
                else self.params.control_size)
        yield from self.snic.compute(self.params.snic.msg_handler_cost)
        self.snic.send_multi(list(targets), msg, size)

    def _snic_send_vals(self, type: MsgType, key: Any, ts: Timestamp,
                        scope: Optional[int], write_id: int,
                        persist_id: Optional[int] = None) -> None:
        msg = self.stamp(Message(type=type, key=key, ts=ts, src=self.node_id,
                                 scope=scope, persist_id=persist_id,
                                 write_id=write_id))
        self.snic.send_multi(list(self.peers), msg, self.params.control_size)
        self.metrics.counters.vals_sent += len(self.peers)
        if self.robustness is not None and self.robustness.val_resends > 0:
            # VALs are unacknowledged: re-broadcast blindly, receivers are
            # idempotent (monotonic TS updates, owner-checked unlock).
            self.sim.spawn(self._snic_val_rebroadcast(msg),
                           name=f"n{self.node_id}.snic.valrtx.w{write_id}")

    def _snic_val_rebroadcast(self, msg: Message):
        policy = self.robustness
        delay = policy.base_timeout
        for _ in range(policy.val_resends):
            yield self.sim.timeout(delay)
            self.metrics.counters.val_rebroadcasts += 1
            if self.obs is not None:
                # send_multi is a synchronous queue deposit, so this is an
                # instant rather than a begin/end segment pair.
                self.obs.instant(self.node_id, "val_rebroadcast",
                                 op_id=msg.write_id, type=msg.type.name)
            self.snic.send_multi(list(self.peers), msg,
                                 self.params.control_size)
            delay = policy.next_timeout(delay)

    def _snic_coord_persist(self, envelope: Envelope, msg: Message):
        """[PERSIST]sc, coordinator SNIC half."""
        yield from self.snic.compute(self.params.snic.msg_handler_cost)
        txn = self.txn(msg.write_id)
        if txn is None:
            raise ProtocolError(f"PERSIST for unregistered txn: {msg}")
        self.snic.send_multi(list(self.peers), msg,
                             self.params.control_size)
        self.watch_retransmits(txn, msg, self._snic_resend)
        # Local scope durability: every scoped write dFIFO-enqueued, plus
        # the [PERSIST]sc marker itself.
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "scope_wait",
                               lane="snic")
        yield from self.scope_tracker.wait_scope_durable(msg.scope)
        yield self.sim.sleep(
            self.params.dfifo_write_time(self.params.control_size))
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "scope_wait")
            self.obs.seg_begin(self.node_id, msg.write_id, "ack_wait",
                               lane="snic")
        yield txn.all_ack_ps
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "ack_wait",
                             kind="ACK_P")
        done = Message(type=MsgType.BATCHED_ACK, key=None, ts=NULL_TS,
                       src=self.node_id, scope=msg.scope,
                       persist_id=msg.persist_id, write_id=msg.write_id)
        self.snic.send_to_host(done, self.params.control_size)
        self._snic_send_vals(MsgType.VAL_P, None, NULL_TS, msg.scope,
                             txn.write_id, persist_id=msg.persist_id)
        if not txn.host_complete.triggered:
            yield txn.host_complete
        self.retire_txn(txn.write_id)

    # ======================================================================
    # SNIC side: follower (Fig. 8 lines 28-42)
    # ======================================================================

    def _snic_net_loop(self):
        """Process messages arriving from the network."""
        while True:
            packet = yield self.snic.net_inbox.get()
            if self.crashed:
                continue
            self.snic.messages_received += 1
            msg = packet.payload
            if isinstance(msg, Message):
                self.sim.spawn(self._snic_net_handle(msg),
                               name=self._snic_handler_names[msg.type])
            elif self.control_handler is not None:
                self.control_handler(msg)

    def _snic_net_handle(self, msg: Message):
        yield from self.snic.compute(self.params.snic.msg_handler_cost)
        if msg.type.is_ack:
            yield from self._snic_on_ack(msg)
        elif msg.type in (MsgType.INV, MsgType.PERSIST):
            replies = self.dedup_inv(msg)
            if replies is not None:
                self._snic_answer_duplicate(msg, replies)
            elif msg.type is MsgType.PERSIST:
                yield from self._snic_follower_persist(msg)
            else:
                yield from self._snic_follower_inv(msg)
        elif msg.type.is_val:
            yield from self._snic_follower_val(msg)
        else:
            raise ProtocolError(f"unhandled network message {msg}")

    def _snic_answer_duplicate(self, msg: Message, replies) -> None:
        """Duplicate INV/PERSIST delivery: re-send the recorded ACKs
        verbatim (re-running the handler would deadlock on the obsolete
        path's consistency spin, and would double-enqueue FIFO entries)."""
        self.metrics.counters.dedup_inv_hits += 1
        if self.obs is not None:
            self.obs.instant(self.node_id, "duplicate_suppressed",
                             op_id=msg.write_id, type=msg.type.name,
                             resent=len(replies))
        for reply in list(replies):
            self._snic_send_control(msg.src, reply)

    def _snic_on_ack(self, msg: Message):
        txn = self.txn(msg.write_id)
        if txn is None:
            if self.tolerate_stale_acks:
                return
            raise ProtocolError(f"ACK for unknown write: {msg}")
        if not txn.on_ack(msg, strict=self.robustness is None):
            self.metrics.counters.dedup_ack_hits += 1
            return
        if not self.config.batching:
            # Combined-without-batching: every ACK is passed to the host
            # (Fig. 6), costing a PCIe message and a host handler each.
            self.snic.send_to_host(msg, self.params.control_size)
        return
        yield  # pragma: no cover - generator marker

    def _snic_send_control(self, dst: int, msg: Message) -> None:
        self.snic.send_message(dst, msg, self.params.control_size)
        self.metrics.counters.acks_sent += 1

    def _snic_reply(self, msg: Message, ack_type: MsgType) -> None:
        """Send an ACK-family reply to *msg*, recording it so a duplicate
        delivery of *msg* can be answered verbatim (robustness mode)."""
        reply = msg.reply(ack_type, self.node_id)
        self.record_reply(msg, reply)
        self._snic_send_control(msg.src, reply)

    def _snic_ack_obsolete(self, meta: RecordMeta, msg: Message):
        """Follower received an obsolete INV (Fig. 8 lines 29-32)."""
        p = self.model.persistency
        if p in (P.STRICT, P.READ_ENFORCED):
            yield from meta.consistency_spin()
            self._snic_reply(msg, MsgType.ACK_C)
            yield from meta.persistency_spin()
            self._snic_reply(msg, MsgType.ACK_P)
        elif p is P.SYNCHRONOUS:
            yield from self.handle_obsolete(meta)
            self._snic_reply(msg, MsgType.ACK)
        else:
            yield from meta.consistency_spin()
            self._snic_reply(msg, MsgType.ACK_C)

    def _snic_follower_inv(self, msg: Message):
        """Fig. 8 lines 28-38: the whole follower runs on the SNIC."""
        handling_started = self.sim.now
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "inv_handle",
                               lane="snic")
        meta = self.kv.meta(msg.key)
        if meta.is_obsolete(msg.ts):  # line 29
            yield from self._snic_ack_obsolete(meta, msg)
            self.metrics.record_follower_handling(
                msg.write_id, self.sim.now - handling_started)
            if self.obs is not None:
                self.obs.seg_end(self.node_id, msg.write_id, "inv_handle",
                                 obsolete=True)
            return
        yield self.snic.coherent_access()  # line 33: Snatch RDLock
        if meta.snatch_rdlock(msg.ts):
            self.metrics.counters.rdlock_snatches += 1
        # Line 35: enqueue to vFIFO (and dFIFO per the model's timing).
        size = self.record_size(msg)
        entry = self.snic.make_entry(msg.key, msg.ts, msg.value, size,
                                     scope=msg.scope, op_id=msg.write_id)
        meta.set_volatile(msg.ts)
        if self.obs is not None:
            self.obs.seg_begin(self.node_id, msg.write_id, "vfifo_enqueue",
                               lane="snic")
        yield from self.snic.vfifo_enqueue(entry)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "vfifo_enqueue",
                             bytes=size)
        self._pending_entries[(msg.key, msg.ts)] = entry
        dentry = self.snic.make_entry(msg.key, msg.ts, msg.value, size,
                                      scope=msg.scope, op_id=msg.write_id)
        scope_event = (self.scope_tracker.register_write(msg.scope)
                       if msg.scope is not None else None)
        p = self.model.persistency
        if p is P.SYNCHRONOUS:
            yield from self._durable_enqueue(dentry)
            if scope_event is not None:
                scope_event.succeed()
            self._snic_reply(msg, MsgType.ACK)
        elif p is P.STRICT:
            self._snic_reply(msg, MsgType.ACK_C)
            yield from self._durable_enqueue(dentry)
            self._snic_reply(msg, MsgType.ACK_P)
        elif p is P.READ_ENFORCED:
            self._snic_reply(msg, MsgType.ACK_C)
            self.sim.spawn(self._renf_follower_durable(msg, dentry),
                           name=self._fdq_name)
        else:  # EVENTUAL, SCOPE
            self._snic_reply(msg, MsgType.ACK_C)
            self.sim.spawn(
                self._background_durable_follower(dentry, scope_event),
                name=self._fdq_name)
        self.metrics.record_follower_handling(
            msg.write_id, self.sim.now - handling_started)
        if self.obs is not None:
            self.obs.seg_end(self.node_id, msg.write_id, "inv_handle")

    def _renf_follower_durable(self, msg: Message, dentry: FifoEntry):
        yield from self._durable_enqueue(dentry)
        self._snic_reply(msg, MsgType.ACK_P)

    def _background_durable_follower(self, dentry: FifoEntry, scope_event):
        yield from self._durable_enqueue(dentry)
        if scope_event is not None and not scope_event.triggered:
            scope_event.succeed()

    def _snic_follower_val(self, msg: Message):
        """Fig. 8 lines 39-42: wait for the vFIFO drain, then unlock."""
        if msg.key is None:
            return  # [VAL_P]sc of a PERSIST transaction
        meta = self.kv.meta(msg.key)
        entry = self._pending_entries.pop((msg.key, msg.ts), None)
        if msg.type in (MsgType.VAL, MsgType.VAL_C):
            if entry is not None and not entry.drained.triggered:
                yield entry.drained  # line 40
            meta.set_glb_volatile(msg.ts)
            if msg.type is MsgType.VAL:
                meta.set_glb_durable(msg.ts)
                self.obs_durable(msg.key, meta)
            yield self.snic.coherent_access()
            meta.release_rdlock(msg.ts)  # lines 41-42
        elif msg.type is MsgType.VAL_P:
            meta.set_glb_durable(msg.ts)
            self.obs_durable(msg.key, meta)

    def _snic_follower_persist(self, msg: Message):
        """[PERSIST]sc at a follower SNIC: scope writes are durable once
        dFIFO-enqueued; wait for them, persist the marker, [ACK_P]sc."""
        yield from self.scope_tracker.wait_scope_durable(msg.scope)
        yield self.sim.sleep(
            self.params.dfifo_write_time(self.params.control_size))
        self._snic_reply(msg, MsgType.ACK_P)
