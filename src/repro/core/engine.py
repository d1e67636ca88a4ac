"""Shared protocol-engine machinery for MINOS-B and MINOS-O.

Both engines (one instance per node) expose the same surface to the client
drivers — ``client_write``, ``client_read``, ``client_persist`` generators
— and share: write-transaction bookkeeping (:class:`WriteTxn`), timestamp
issuing, the handleObsolete() helper, and scope tracking.  The per-variant
algorithms live in :mod:`repro.core.baseline` and :mod:`repro.core.offload`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.messages import Message, MsgType
from repro.core.metadata import RecordMeta
from repro.core.model import DDPModel, Persistency
from repro.core.scope import ScopeTracker
from repro.core.timestamp import Timestamp
from repro.errors import ProtocolError
from repro.hw.host import Host
from repro.hw.params import MachineParams
from repro.kv.store import MinosKV
from repro.metrics.stats import Metrics
from repro.sim.events import Event
from repro.sim.kernel import Simulator


@dataclass(slots=True)
class WriteResult:
    """Returned by ``client_write`` when control returns to the client."""

    key: Any
    ts: Timestamp
    obsolete: bool
    latency: float
    #: The protocol ``write_id`` the coordinator minted for this
    #: transaction — the same id the obs layer keys its spans and
    #: segments on, so a recorded history event can be correlated with
    #: the exported timeline.  ``None`` on paths that never mint one.
    write_id: Optional[int] = None


@dataclass(slots=True)
class ReadResult:
    """Returned by ``client_read``."""

    key: Any
    value: Any
    ts: Timestamp
    latency: float
    #: Reads have no protocol-level id; when an obs recorder is attached
    #: this is the (negative) span id it minted, else ``None``.
    write_id: Optional[int] = None


class WriteTxn:
    """Coordinator-side bookkeeping of one client-write.

    Tracks which followers have acknowledged (Table I's
    ``RcvedACK*_SenderID`` bookkeeping) and exposes completion events the
    coordinator algorithm waits on.
    """

    __slots__ = ("sim", "write_id", "key", "ts", "expected", "excluded",
                 "acks", "ack_cs", "ack_ps", "all_acks", "all_ack_cs",
                 "all_ack_ps", "local_persist_done", "host_complete",
                 "local_enqueued", "inv_deposited_at", "last_ack_at")

    def __init__(self, sim: Simulator, write_id: int, key: Any,
                 ts: Timestamp, expected) -> None:
        self.sim = sim
        self.write_id = write_id
        self.key = key
        self.ts = ts
        #: Follower nodes this write expects responses from.
        self.expected = frozenset(expected)
        #: Nodes declared failed while the write was in flight; their
        #: missing ACKs no longer block completion (§III-E).
        self.excluded: set = set()
        self.acks: set = set()
        self.ack_cs: set = set()
        self.ack_ps: set = set()
        self.all_acks = Event(sim)
        self.all_ack_cs = Event(sim)
        self.all_ack_ps = Event(sim)
        self.local_persist_done = Event(sim)
        #: MINOS-O only: fired when the host learns the write completed
        #: (the batched ACK / final forwarded ACK arrived over PCIe).
        self.host_complete = Event(sim)
        #: MINOS-O only: fired once the local vFIFO enqueue finished.
        self.local_enqueued = Event(sim)
        #: Filled by the engine for the Fig. 4 communication accounting.
        self.inv_deposited_at: Optional[float] = None
        self.last_ack_at: Optional[float] = None

    @property
    def followers(self) -> int:
        return len(self.expected)

    def _buckets(self):
        return ((self.acks, self.all_acks),
                (self.ack_cs, self.all_ack_cs),
                (self.ack_ps, self.all_ack_ps))

    def _check(self, bucket: set, event) -> None:
        if (self.expected - self.excluded) <= bucket and not event.triggered:
            event.succeed()

    def on_ack(self, msg: Message, strict: bool = True) -> bool:
        """Record an ACK/ACK_C/ACK_P from ``msg.src``.

        A duplicate (same type, same sender) raises by default: on the
        fault-free path it can only mean a protocol bug.  With
        ``strict=False`` (the engines pass this while a fault plan is
        installed, where duplicated or retransmitted-and-then-delivered
        ACKs are expected) duplicates are suppressed idempotently and
        ``False`` is returned; ``True`` means the ACK was fresh.
        """
        if msg.type is MsgType.ACK:
            bucket, event = self.acks, self.all_acks
        elif msg.type is MsgType.ACK_C:
            bucket, event = self.ack_cs, self.all_ack_cs
        elif msg.type is MsgType.ACK_P:
            bucket, event = self.ack_ps, self.all_ack_ps
        else:
            raise ProtocolError(f"not an ACK: {msg}")
        if msg.src in bucket:
            if strict:
                raise ProtocolError(
                    f"duplicate {msg.type.name} from node {msg.src} for "
                    f"write {self.write_id}")
            return False
        bucket.add(msg.src)
        self.last_ack_at = self.sim.now
        self._check(bucket, event)
        return True

    def missing(self, bucket: set) -> set:
        """Peers still expected to contribute to *bucket* (retransmit
        targets): expected minus excluded minus already-acknowledged."""
        return self.expected - self.excluded - bucket

    def exclude(self, node_id: int) -> None:
        """Stop waiting for *node_id* (it was declared failed)."""
        if node_id not in self.expected or node_id in self.excluded:
            return
        self.excluded.add(node_id)
        for bucket, event in self._buckets():
            self._check(bucket, event)


class EngineBase:
    """State and helpers common to the baseline and offload engines.

    The whole engine hierarchy declares ``__slots__``: one engine is
    instantiated per simulated node and hot handlers touch engine
    attributes on every message, so the fixed layout buys both memory
    and attribute-lookup speed.  Post-construction hooks (``tracer``,
    ``obs``, ``robustness``, ``control_handler``, ``crashed``,
    ``tolerate_stale_acks``) are declared here and attached by
    assignment — never by adding new attributes.
    """

    __slots__ = ("sim", "node_id", "params", "model", "host", "kv",
                 "peers", "metrics", "scope_tracker", "_txns",
                 "_last_version", "crashed", "tracer", "obs",
                 "robustness", "_seq_counter", "_inv_replies",
                 "_inv_reply_order", "ckpt", "_bg_persists",
                 "_bg_drained", "incarnation")

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 model: DDPModel, host: Host, kv: MinosKV,
                 peers: List[int], metrics: Metrics) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.model = model
        self.host = host
        self.kv = kv
        self.peers = [p for p in peers if p != node_id]
        self.metrics = metrics
        self.scope_tracker = ScopeTracker(sim)
        self._txns: Dict[int, WriteTxn] = {}
        self._last_version: Dict[Any, int] = {}
        #: Set true by failure injection: a crashed node ignores traffic.
        self.crashed = False
        #: Bumped by every crash: helper processes minted before the
        #: crash (retransmit timers, in-flight coordinator rounds) check
        #: it after waking and die instead of resuming against the
        #: restarted incarnation's wiped protocol state.
        self.incarnation = 0
        #: Optional repro.trace.Tracer; attach via MinosCluster.attach_tracer.
        self.tracer = None
        #: Optional repro.obs.Observability; attach via
        #: MinosCluster.attach_obs.  Same no-op contract as the tracer:
        #: ``None`` keeps every span/segment site at one attribute check.
        self.obs = None
        #: Optional repro.faults.RetransmitPolicy — set by
        #: ``MinosCluster.enable_faults``.  ``None`` (the default) keeps
        #: every robustness mechanism off: no sequence stamping, no
        #: retransmit timers, no dedup bookkeeping, so the fault-free
        #: event calendar is untouched.
        self.robustness = None
        #: Optional repro.ckpt.CheckpointManager — set by
        #: ``MinosCluster.enable_checkpoints``.  ``None`` (the default)
        #: keeps every checkpoint hook at one attribute check, so the
        #: checkpointing-off event calendar is byte-identical to seed.
        self.ckpt = None
        #: In-flight background persist generators (the Event/Scope/REnf
        #: epilogues).  Pure Python counter bookkeeping — it never touches
        #: the simulator calendar — used by the checkpoint quiescence to
        #: know when the node's durable state has stopped moving.
        self._bg_persists = 0
        #: Lazily created Event fired when ``_bg_persists`` drains to
        #: zero; ``None`` while nobody is waiting.
        self._bg_drained = None
        self._seq_counter = itertools.count(1)
        #: Follower-side INV dedup: (src, seq) -> ACK replies already sent
        #: for that INV, so a duplicate delivery re-sends the recorded
        #: replies verbatim instead of re-running the handler.
        self._inv_replies: Dict[tuple, List[Message]] = {}
        self._inv_reply_order: deque = deque()

    #: Bound on remembered INV keys (oldest evicted first); generous for
    #: any simulated run while keeping long chaos runs O(1) in memory.
    INV_REPLY_CAP = 4096

    def trace(self, category: str, label: str, **details) -> None:
        """Emit a protocol trace event if a tracer is attached."""
        if self.tracer is not None:
            self.tracer.emit(self.node_id, category, label, **details)

    def obs_durable(self, key, meta) -> None:
        """Record a ``glb_durableTS`` advance as an observability instant
        (the differential suite's monotonicity evidence).  Call *after*
        ``meta.set_glb_durable``: the recorded value is the post-advance
        field, which must be non-decreasing per (node, key)."""
        if self.obs is not None:
            self.obs.instant(self.node_id, "durable_advance", key=key,
                             ts=meta.glb_durable_ts)

    # -- robustness layer (active only under an installed fault plan) -------

    def stamp(self, msg: Message) -> Message:
        """Assign *msg* a fresh per-engine sequence number (robustness
        mode only).  Retransmissions must NOT re-stamp: they reuse the
        original seq, which is what lets receivers deduplicate."""
        if self.robustness is not None:
            msg.seq = next(self._seq_counter)
        return msg

    def dedup_inv(self, msg: Message) -> Optional[List[Message]]:
        """Duplicate-INV (or PERSIST) check at a follower.

        Returns ``None`` on first delivery — and registers the message so
        later copies are recognized — or the list of ACK replies already
        sent for it (possibly empty, when the original handler has not
        acknowledged yet: the duplicate is then dropped silently, since
        the in-flight handler will acknowledge).
        """
        if self.robustness is None or msg.seq is None:
            return None
        key = (msg.src, msg.seq)
        replies = self._inv_replies.get(key)
        if replies is not None:
            return replies
        self._inv_replies[key] = []
        self._inv_reply_order.append(key)
        while len(self._inv_reply_order) > self.INV_REPLY_CAP:
            self._inv_replies.pop(self._inv_reply_order.popleft(), None)
        return None

    def record_reply(self, request: Message, reply: Message) -> None:
        """Remember an ACK sent in response to *request* so a duplicate
        delivery of the request can be answered verbatim."""
        if self.robustness is None or request.seq is None:
            return
        replies = self._inv_replies.get((request.src, request.seq))
        if replies is not None:
            replies.append(reply)

    def _retransmit_done_event(self, txn: WriteTxn) -> Event:
        """When the coordinator may stop retransmitting: every ACK the
        model's client-return AND epilogue conditions need has arrived."""
        if txn.key is None:  # a [PERSIST]sc transaction: ACK_Ps only
            return txn.all_ack_ps
        p = self.model.persistency
        if p is Persistency.SYNCHRONOUS:
            return txn.all_acks
        if p in (Persistency.STRICT, Persistency.READ_ENFORCED):
            return self.sim.all_of([txn.all_ack_cs, txn.all_ack_ps])
        return txn.all_ack_cs

    def _retransmit_targets(self, txn: WriteTxn) -> set:
        """Peers whose ACKs are still missing for *txn* (union over the
        phases the model waits on)."""
        if txn.key is None:
            return set(txn.missing(txn.ack_ps))
        p = self.model.persistency
        if p is Persistency.SYNCHRONOUS:
            return set(txn.missing(txn.acks))
        if p in (Persistency.STRICT, Persistency.READ_ENFORCED):
            return set(txn.missing(txn.ack_cs)) | set(txn.missing(txn.ack_ps))
        return set(txn.missing(txn.ack_cs))

    def _retransmit_loop(self, txn: WriteTxn, msg: Message, resend):
        """Coordinator retransmit timer for one write (Fig. 2's "spin
        until all ACKs" made loss-tolerant): while the ACK condition is
        unmet, re-send *msg* to exactly the peers with missing ACKs, with
        capped exponential backoff.  *resend* is the engine-specific
        ``(msg, targets) -> generator`` send path.  Gives up after
        ``max_retries`` — failure detection then excludes the dead peer,
        which completes the transaction's ACK events.
        """
        policy = self.robustness
        done = self._retransmit_done_event(txn)
        delay = policy.base_timeout
        born = self.incarnation
        for _attempt in range(policy.max_retries):
            yield self.sim.any_of([done, self.sim.timeout(delay)])
            if done.triggered:
                return
            if self.crashed or self.incarnation != born:
                # The node died under this timer: the restarted
                # incarnation no longer knows the transaction, so
                # re-sending its INV would strand followers waiting on
                # a VAL nobody can produce.
                return
            targets = sorted(self._retransmit_targets(txn))
            if not targets:
                return
            self.metrics.counters.inv_retransmits += 1
            self.trace("robust", "retransmit", type=msg.type.name,
                       write_id=txn.write_id, targets=targets)
            if self.obs is not None:
                self.obs.seg_begin(self.node_id, txn.write_id, "retransmit")
            yield from resend(msg, targets)
            if self.obs is not None:
                self.obs.seg_end(self.node_id, txn.write_id, "retransmit",
                                 type=msg.type.name, targets=len(targets))
            delay = policy.next_timeout(delay)
        self.trace("robust", "retransmit give-up", type=msg.type.name,
                   write_id=txn.write_id)

    def watch_retransmits(self, txn: WriteTxn, msg: Message, resend) -> None:
        """Arm the retransmit timer for *txn* (no-op when robustness is
        off — the fault-free calendar gains no events)."""
        if self.robustness is not None:
            self.sim.spawn(self._retransmit_loop(txn, msg, resend),
                           name=f"n{self.node_id}.rtx.w{txn.write_id}")

    # -- checkpoint quiescence (repro.ckpt; no-op without a manager) ---------

    def spawn_bg(self, gen, name: str) -> None:
        """Spawn a background durability generator, tracked for
        checkpoint quiescence.  The wrapper adds no simulator events —
        the counter is plain Python state — so runs without a
        CheckpointManager keep a byte-identical event calendar."""
        self.sim.spawn(self._bg_wrap(gen), name=name)

    def _bg_wrap(self, gen):
        self._bg_persists += 1
        try:
            yield from gen
        finally:
            self._bg_persists -= 1
            if self._bg_persists == 0 and self._bg_drained is not None:
                event, self._bg_drained = self._bg_drained, None
                if not event.triggered:
                    event.succeed()

    def wait_background_drained(self):
        """Wait until every tracked background persist has finished."""
        while self._bg_persists > 0:
            if self._bg_drained is None:
                self._bg_drained = Event(self.sim)
            yield self._bg_drained

    def ckpt_quiesce(self):
        """Persistency-model-aware quiescence before fencing a
        checkpoint (arXiv 2208.02411: which checkpoints are legal
        depends on the active persistency model).

        * Synch / Strict — persistence is on the critical path of every
          acked write, so the node may fence at any instant.
        * REnf / Event — drain the in-flight background persists so the
          fenced image reflects every locally started epilogue.
        * Scope — additionally close every open scope (the
          ``[PERSIST]sc`` closure logic) so no scope's validity
          dependencies straddle the fence.
        """
        if self.model.persist_in_critical_path:
            return
        yield from self.wait_background_drained()
        if self.model.uses_scopes:
            yield from self.scope_tracker.drain_open_scopes()
            yield from self.wait_background_drained()

    # -- timestamps -----------------------------------------------------------

    def issue_ts(self, key: Any) -> Timestamp:
        """Generate TS_WR for a new client-write (paper §III-A): the local
        record's version plus one, stamped with the Coordinator's id.

        A per-key high-water mark keeps concurrently issued local writes
        unique (two local threads reading the same volatileTS would
        otherwise mint identical timestamps)."""
        meta = self.kv.meta(key)
        version = max(meta.volatile_ts.version,
                      self._last_version.get(key, -1)) + 1
        self._last_version[key] = version
        return Timestamp(version, self.node_id)

    # -- transactions ------------------------------------------------------------

    def register_txn(self, key: Any, ts: Timestamp, write_id: int) -> WriteTxn:
        txn = WriteTxn(self.sim, write_id, key, ts, self.peers)
        self._txns[write_id] = txn
        return txn

    def exclude_node(self, node_id: int) -> None:
        """Remove a failed node from this engine's replica set: new writes
        stop addressing it, and in-flight writes stop waiting for it."""
        if node_id in self.peers:
            self.peers.remove(node_id)
        for txn in list(self._txns.values()):
            txn.exclude(node_id)

    def include_node(self, node_id: int) -> None:
        """Re-insert a recovered node into the replica set."""
        if node_id != self.node_id and node_id not in self.peers:
            self.peers.append(node_id)
            self.peers.sort()

    def txn(self, write_id: int) -> Optional[WriteTxn]:
        return self._txns.get(write_id)

    def retire_txn(self, write_id: int) -> None:
        self._txns.pop(write_id, None)

    def client_complete_event(self, txn: WriteTxn) -> Event:
        """The event whose firing lets the write response return to the
        client (paper §II-A "Brief Model Definitions"):

        * Synch  — all (combined) ACKs: updated **and** persisted.
        * Strict — all ACK_Cs and all ACK_Ps.
        * REnf / Event / Scope — all ACK_Cs: replicas updated.
        """
        persistency = self.model.persistency
        if persistency is Persistency.SYNCHRONOUS:
            return txn.all_acks
        if persistency is Persistency.STRICT:
            return self.sim.all_of([txn.all_ack_cs, txn.all_ack_ps])
        return txn.all_ack_cs

    # -- handleObsolete (paper Fig. 2 lines 1-3 / 23-25) ----------------------------

    def handle_obsolete(self, meta: RecordMeta):
        """ConsistencySpin always (Lin); PersistencySpin only for the
        models that track persistency (§III-C)."""
        yield from meta.consistency_spin()
        if self.model.persistency_spin_on_obsolete:
            yield from meta.persistency_spin()

    # -- misc ------------------------------------------------------------------------

    @property
    def cluster_size(self) -> int:
        return len(self.peers) + 1

    def record_read_metrics(self, started: float) -> float:
        latency = self.sim.now - started
        self.metrics.record_read(latency)
        return latency

    def record_write_metrics(self, txn: WriteTxn, started: float) -> float:
        latency = self.sim.now - started
        self.metrics.record_write(latency)
        if txn.inv_deposited_at is not None and txn.last_ack_at is not None:
            self.metrics.record_comm_span(
                txn.write_id, txn.inv_deposited_at, txn.last_ack_at)
        return latency
