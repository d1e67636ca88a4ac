"""Failure detection and recovery (paper §III-E).

The paper's scheme: nodes fail by crash or disconnection; *timeout-based*
detection identifies the non-responding node and alerts the others; when
the node is re-inserted, a designated node ships it the log of all updates
committed since it stopped responding, which it applies to its persistent
and volatile state.  (The paper explicitly leaves deeper recovery —
mid-transaction coordinator failure — to future work; so do we.)

:class:`RecoveryManager` drives this for a cluster: per-node heartbeat
broadcasters, per-node monitors that exclude unresponsive peers from the
replica set (unblocking in-flight writes), and the catch-up exchange on
re-insertion.  All of its traffic flows through the same NIC/SmartNIC
fabric as protocol messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.errors import RecoveryError
from repro.hw.nic import Envelope
from repro.hw.params import us
from repro.kv.log import LogEntry


@dataclass(slots=True)
class Heartbeat:
    """Periodic liveness beacon."""

    node_id: int
    seq: int
    sent_at: float


@dataclass(slots=True)
class JoinRequest:
    """A recovering node asks a designated node for catch-up data.

    ``versions`` is the joiner's per-key *durable* timestamp vector: log
    serials are node-local (each node appends in its own persist order),
    so a suffix-by-serial alone can miss a write that the designated node
    logged early but the joiner never saw.  The designated node ships its
    newest durable entry for every key where the joiner's vector lags."""

    node_id: int
    last_serial: int
    versions: Dict[Any, Any] = field(default_factory=dict)


@dataclass(slots=True)
class JoinData:
    """Catch-up payload: committed log entries the joiner missed, plus
    the designated node's per-key glb knowledge.

    The glb snapshot (``key -> (glb_volatileTS, glb_durableTS)``) covers
    the case where the joiner already holds a record version — it applied
    and logged the INV before crashing — but died before the VAL arrived:
    no log entry is missing, yet its glb timestamps are stale."""

    from_node: int
    to_node: int
    entries: List[LogEntry] = field(default_factory=list)
    glb: Dict[Any, tuple] = field(default_factory=dict)


@dataclass(slots=True)
class Rejoined:
    """Broadcast by a recovered node so peers re-include it."""

    node_id: int


class RecoveryManager:
    """Failure detection + re-insertion for a :class:`MinosCluster`.

    Parameters
    ----------
    heartbeat_interval / timeout:
        A node is declared failed by a peer once no heartbeat has been
        seen for *timeout* (must comfortably exceed the interval).
    """

    __slots__ = ("cluster", "sim", "heartbeat_interval", "timeout",
                 "last_seen", "suspected", "detections", "rejoins",
                 "_seq", "_rejoin_gates", "_round_changed")

    def __init__(self, cluster, heartbeat_interval: float = us(50),
                 timeout: float = us(200)) -> None:
        if timeout <= heartbeat_interval:
            raise RecoveryError("timeout must exceed heartbeat_interval")
        self.cluster = cluster
        self.sim = cluster.sim
        self.heartbeat_interval = heartbeat_interval
        self.timeout = timeout
        n = len(cluster.nodes)
        #: last_seen[observer][peer] -> time of last heartbeat from peer.
        self.last_seen: Dict[int, Dict[int, float]] = {
            i: {j: 0.0 for j in range(n) if j != i} for i in range(n)}
        #: suspected[observer] -> set of peers the observer declared failed.
        self.suspected: Dict[int, set] = {i: set() for i in range(n)}
        self._seq = 0
        self.detections = 0
        self.rejoins = 0
        self._rejoin_gates: Dict[int, Any] = {}
        #: node -> whether its latest catch-up round changed any state.
        self._round_changed: Dict[int, bool] = {}
        for node in cluster.nodes:
            node.engine.control_handler = self._make_handler(node.node_id)
            self.sim.spawn(self._heartbeat_loop(node.node_id),
                           name=f"n{node.node_id}.hb")
            self.sim.spawn(self._monitor_loop(node.node_id),
                           name=f"n{node.node_id}.fd")

    # -- plumbing ----------------------------------------------------------

    def _engine(self, node_id: int):
        return self.cluster.nodes[node_id].engine

    def _send(self, src: int, dst: int, payload: Any,
              size_bytes: int = 64) -> None:
        """Ship a control payload over the regular fabric."""
        node = self.cluster.nodes[src]
        if node.snic is not None:
            node.snic.send_message(dst, payload, size_bytes)
        else:
            node.nic.host_deposit(Envelope(
                payload=payload, size_bytes=size_bytes, src_node=src,
                dst=dst))

    def _make_handler(self, node_id: int):
        def handle(payload: Any) -> None:
            if isinstance(payload, Heartbeat):
                self._on_heartbeat(node_id, payload)
            elif isinstance(payload, JoinRequest):
                self._on_join_request(node_id, payload)
            elif isinstance(payload, JoinData):
                self._on_join_data(node_id, payload)
            elif isinstance(payload, Rejoined):
                self._on_rejoined(node_id, payload)
        return handle

    # -- heartbeats & detection ------------------------------------------------

    def _heartbeat_loop(self, node_id: int):
        engine = self._engine(node_id)
        while True:
            if not engine.crashed:
                self._seq += 1
                beat = Heartbeat(node_id=node_id, seq=self._seq,
                                 sent_at=self.sim.now)
                for peer in range(len(self.cluster.nodes)):
                    if peer != node_id:
                        self._send(node_id, peer, beat)
            yield self.sim.timeout(self.heartbeat_interval)

    def _monitor_loop(self, node_id: int):
        engine = self._engine(node_id)
        while True:
            yield self.sim.timeout(self.heartbeat_interval)
            if engine.crashed:
                continue
            for peer, seen in self.last_seen[node_id].items():
                stale = self.sim.now - max(seen, 0.0) > self.timeout
                if stale and peer not in self.suspected[node_id]:
                    self.suspected[node_id].add(peer)
                    self.detections += 1
                    engine.exclude_node(peer)

    def _on_heartbeat(self, observer: int, beat: Heartbeat) -> None:
        self.last_seen[observer][beat.node_id] = self.sim.now
        if beat.node_id in self.suspected[observer]:
            # A suspected node speaking again: re-include it.
            self.suspected[observer].discard(beat.node_id)
            self._engine(observer).include_node(beat.node_id)

    # -- crash / recover API -------------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Crash *node_id*: it stops sending heartbeats and drops traffic."""
        self.cluster.crash(node_id)

    def recover(self, node_id: int):
        """Re-insert *node_id*: returns the rejoin process (joinable).

        The node asks the lowest-numbered alive node for the committed
        updates it missed, applies them, then announces itself.
        """
        return self.sim.spawn(self._rejoin(node_id),
                              name=f"n{node_id}.rejoin")

    def designated_node(self, exclude: int) -> int:
        for node in self.cluster.nodes:
            if node.node_id != exclude and not node.engine.crashed:
                return node.node_id
        raise RecoveryError("no alive node to recover from")

    #: Catch-up rounds per rejoin before declaring convergence anyway.
    MAX_CATCHUP_ROUNDS = 8

    def _rejoin(self, node_id: int):
        # Resume the whole node (engine + halted NIC/SNIC with cleared
        # queues), not just the engine flag.
        self.cluster.restore(node_id)
        yield from self._catchup_round(node_id)
        # Announce recovery; peers re-include us on the next heartbeat
        # anyway, but the explicit Rejoined makes it immediate (and new
        # writes start targeting us again).
        for peer in range(len(self.cluster.nodes)):
            if peer != node_id:
                self._send(node_id, peer, Rejoined(node_id=node_id))
        # Writes that were in flight while we were excluded can commit
        # *after* the first catch-up snapshot was taken and never reach
        # us (their INV/VAL fan-out skipped us).  Keep re-syncing until a
        # round brings nothing new.
        for _ in range(self.MAX_CATCHUP_ROUNDS):
            yield self.sim.timeout(self.timeout)
            yield from self._catchup_round(node_id)
            if not self._round_changed.get(node_id, False):
                break
        self.rejoins += 1
        return node_id

    def _catchup_round(self, node_id: int):
        """One JoinRequest/JoinData exchange, retried under faults until
        the payload lands and is applied."""
        engine = self._engine(node_id)

        def request() -> JoinRequest:
            kv = engine.kv
            versions = {}
            for key in kv.metadata.keys():
                ts = kv.log.durable_ts(key)
                if ts is not None:
                    versions[key] = ts
            return JoinRequest(node_id=node_id,
                               last_serial=kv.log.last_serial,
                               versions=versions)

        gate = self.sim.event(label=f"rejoin:{node_id}")
        self._rejoin_gates[node_id] = gate
        designated = self.designated_node(exclude=node_id)
        self._send(node_id, designated, request())
        if getattr(self.cluster, "fault_injector", None) is not None:
            # The JoinRequest or JoinData may be lost to injected faults:
            # re-issue the request until the catch-up payload lands.
            while not gate.triggered:
                yield self.sim.any_of([gate, self.sim.timeout(self.timeout)])
                if gate.triggered:
                    break
                designated = self.designated_node(exclude=node_id)
                self._send(node_id, designated, request())
        else:
            yield gate

    # -- rollback recovery (multi-node / whole-cluster crashes) ----------------

    def restore_cluster(self, node_ids=None):
        """Rollback recovery for multi-node and *whole-cluster* crashes
        (process helper — run it on the simulator).

        Unlike the single-node rejoin path, this works with ZERO alive
        nodes: :meth:`designated_node` is unusable there, but the NVM
        logs survive the crash, so the restore line is derived directly
        from every node's surviving NVM log
        (:meth:`repro.kv.log.NvmLog.durable_snapshot`), folded per key
        across all nodes.  Every crashed node is rolled
        back to that line: its volatile image and protocol metadata are
        rebuilt from scratch, missing durable versions are replayed into
        its log, and ``glb_volatileTS`` / ``glb_durableTS`` are
        re-derived (equal to the line, so post-restore state is mutually
        consistent).  Surviving nodes keep their state — they lost
        nothing — and only re-include the restored peers.
        """
        crashed = (sorted(node_ids) if node_ids is not None else
                   [n.node_id for n in self.cluster.nodes
                    if n.engine.crashed])
        # The global restore line: per-key newest surviving durable entry
        # across every node's NVM log.
        line: Dict[Any, LogEntry] = {}
        for node in self.cluster.nodes:
            for key, entry in node.engine.kv.log.durable_snapshot().items():
                current = line.get(key)
                if current is None or current.ts < entry.ts:
                    line[key] = entry
        crashed_set = set(crashed)
        for node_id in crashed:
            self.cluster.restore(node_id)
        # Every node converges on the line — crashed nodes are rebuilt
        # from scratch, survivors topped up (a survivor may lack a
        # version that only the crashed nodes' NVM held, and its glb
        # knowledge lags the line; same monotonic application as the
        # rejoin catch-up).  Afterwards the line is durable everywhere,
        # so re-deriving glb_durableTS = line is truthful cluster-wide.
        for node in self.cluster.nodes:
            yield from self._restore_node(node.node_id, line,
                                          rebuild=node.node_id in
                                          crashed_set)
        # Reset suspicion symmetrically: everyone trusts everyone again.
        for node in self.cluster.nodes:
            observer = node.node_id
            self.suspected[observer].clear()
            for peer in range(len(self.cluster.nodes)):
                if peer != observer:
                    self.last_seen[observer][peer] = self.sim.now
                    node.engine.include_node(peer)
        # Writes in flight on the survivors can commit after the line
        # was folded and never reach the restored nodes (the fan-out
        # skipped them while they were excluded).  When survivors exist,
        # converge exactly like the single-node rejoin: catch-up rounds
        # until one brings nothing new.  (A whole-cluster restore has no
        # survivors and nothing in flight — the fold is the state.)
        if len(crashed_set) < len(self.cluster.nodes):
            for _ in range(self.MAX_CATCHUP_ROUNDS):
                yield self.sim.timeout(self.timeout)
                changed = False
                for node_id in crashed:
                    yield from self._catchup_round(node_id)
                    changed |= self._round_changed.get(node_id, False)
                if not changed:
                    break
        self.rejoins += len(crashed)
        return crashed

    def _restore_node(self, node_id: int, line: Dict[Any, LogEntry],
                      rebuild: bool):
        """Converge one node on the restore *line*.  With *rebuild* (a
        crashed node) the lost volatile image is wiped and rebuilt from
        scratch; a survivor is merely topped up.  Either way, versions
        this node's own log never saw are ingested and its glb
        timestamps advance to the line."""
        engine = self._engine(node_id)
        kv = engine.kv
        own = kv.log.durable_snapshot()
        missing = [entry for key, entry in sorted(line.items(),
                                                  key=lambda kv_: str(kv_[0]))
                   if key not in own or own[key].ts < entry.ts]
        if rebuild:
            # Volatile state did not survive; in-flight protocol
            # bookkeeping (transactions, scope tracking, FIFO residue)
            # died with it.
            kv.reset_volatile()
            engine._txns.clear()
            engine._last_version.clear()
            engine.scope_tracker.reset()
            pending = getattr(engine, "_pending_entries", None)
            if pending is not None:
                pending.clear()
            seen = getattr(engine, "_coord_seen", None)
            if seen is not None:
                seen.clear()
        # Fabric residue (ACKs/VALs of writes whose coordinator state
        # just died with the volatile image) is expected after a
        # rollback, crash windows or not — tolerate it.
        engine.tolerate_stale_acks = True
        record_size = self.cluster.params.record_size
        if missing:
            yield engine.host.nvm.persist(len(missing) * record_size)
            kv.log.ingest(iter(missing))
        if rebuild and line:
            yield engine.host.llc.access(len(line) * record_size)
        for key, entry in sorted(line.items(), key=lambda kv_: str(kv_[0])):
            kv.volatile_write(key, entry.value, entry.ts)
            meta = kv.meta(key)
            meta.set_glb_volatile(entry.ts)
            meta.set_glb_durable(entry.ts)
        # Release RDLocks orphaned by the crash (survivor-side twin of
        # the repair in _apply_join_data): a lock snatched by a dead
        # coordinator's INV whose version the restore line already
        # validated would block reads forever — the VAL that should
        # release it died with the coordinator.
        for key in kv.metadata.keys():
            meta = kv.meta(key)
            if (not meta.rdlock_free
                    and meta.rdlock_owner <= meta.glb_volatile_ts):
                meta.release_rdlock(meta.rdlock_owner)
        if engine.obs is not None:
            engine.obs.instant(node_id, "rollback_restore",
                               rebuild=rebuild, keys=len(line),
                               ingested=len(missing))

    # -- catch-up exchange ---------------------------------------------------------

    def _on_join_request(self, node_id: int, request: JoinRequest) -> None:
        kv = self._engine(node_id).kv
        entries = kv.log.entries_since(request.last_serial)
        # Fill per-key holes the serial suffix cannot see (serials are
        # node-local append orders): ship the newest durable version of
        # every key where the joiner's version vector lags ours.
        shipped = {(entry.key, entry.ts) for entry in entries}
        for key in kv.metadata.keys():
            ts = kv.log.durable_ts(key)
            if ts is None or (key, ts) in shipped:
                continue
            known = request.versions.get(key)
            if known is None or known < ts:
                entries.append(LogEntry(key=key, ts=ts,
                                        value=kv.log.durable_value(key)))
        glb = {key: (kv.meta(key).glb_volatile_ts,
                     kv.meta(key).glb_durable_ts)
               for key in kv.metadata.keys()}
        payload = JoinData(from_node=node_id, to_node=request.node_id,
                           entries=entries, glb=glb)
        size = max(64, len(entries) * self.cluster.params.record_size +
                   len(glb) * 16)
        self._send(node_id, request.node_id, payload, size_bytes=size)

    def _on_join_data(self, node_id: int, data: JoinData) -> None:
        self.sim.spawn(self._apply_join_data(node_id, data),
                       name=f"n{node_id}.catchup")

    def _apply_join_data(self, node_id: int, data: JoinData):
        """Apply the catch-up payload to local durable and volatile state."""
        engine = self._engine(node_id)
        kv = engine.kv
        newest: Dict[Any, LogEntry] = {}
        for entry in data.entries:
            current = newest.get(entry.key)
            if current is None or current.ts < entry.ts:
                newest[entry.key] = entry
        if data.entries:
            total = len(data.entries) * self.cluster.params.record_size
            yield engine.host.nvm.persist(total)
            yield engine.host.llc.access(
                len(newest) * self.cluster.params.record_size)
        changed = bool(data.entries)
        kv.log.ingest(iter(data.entries))
        for entry in newest.values():
            kv.volatile_write(entry.key, entry.value, entry.ts)
            meta = kv.meta(entry.key)
            meta.set_glb_volatile(entry.ts)
            # glb_durableTS deliberately NOT advanced per entry: a
            # logged entry is globally durable under Synch/Strict, but
            # under Scope/Event durability trails the log ([PERSIST]sc
            # / background flush), so assuming entry.ts here runs the
            # joiner ahead of every peer.  The sender's glb map below
            # carries the model-correct value.
        # Adopt the designated node's glb knowledge, clamped so a glb
        # timestamp never runs ahead of what this node itself holds —
        # covers versions we applied+logged before crashing but whose
        # VAL we never saw (the setters are monotonic, so this only
        # ever advances).
        for key, (glb_v, glb_d) in data.glb.items():
            meta = kv.meta(key)
            vts = meta.volatile_ts
            before = (meta.glb_volatile_ts, meta.glb_durable_ts)
            meta.set_glb_volatile(glb_v if glb_v < vts else vts)
            cap = meta.glb_volatile_ts
            meta.set_glb_durable(glb_d if glb_d < cap else cap)
            if (meta.glb_volatile_ts, meta.glb_durable_ts) != before:
                changed = True
        # Release RDLocks orphaned by the crash: if the owning write is
        # now known to be consistency-complete everywhere, its VAL (which
        # would have unlocked the record) happened while we were down.
        for key in kv.metadata.keys():
            meta = kv.meta(key)
            if (not meta.rdlock_free and
                    meta.rdlock_owner <= meta.glb_volatile_ts):
                meta.release_rdlock(meta.rdlock_owner)
                changed = True
        self._round_changed[node_id] = changed
        gate = self._rejoin_gates.pop(node_id, None)
        if gate is not None and not gate.triggered:
            gate.succeed()

    def _on_rejoined(self, node_id: int, note: Rejoined) -> None:
        self.suspected[node_id].discard(note.node_id)
        self._engine(node_id).include_node(note.node_id)
        self.last_seen[node_id][note.node_id] = self.sim.now
