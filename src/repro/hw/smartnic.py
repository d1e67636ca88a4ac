"""The MINOS-O SmartNIC (paper §V, Figure 5).

The SmartNIC runs the offloaded protocol itself (the engine in
:mod:`repro.core.offload` spawns its handler processes "on" this device).
This module provides the hardware services those handlers use:

* its own cores (Table III: 8 cores at 2 GHz) via :meth:`compute`;
* the **vFIFO** (volatile, DRAM) and **dFIFO** (durable, on-NIC NVM)
  queues that replace the WRLock (§V-B.4), with background drain
  processes that DMA entries into the host LLC / host NVM log;
* the **Message Broadcast Module** (§V-B.3) — one serialization, hardware
  fan-out — used for dest-mapped messages when ``broadcast`` is enabled;
* the **Selective Coherence Module** (§V-B.2) — cheap host↔SNIC access to
  the four metadata fields, modelled as a fixed per-access latency;
* PCIe messaging to/from the host, including the batched-ACK path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable

from repro.errors import ConfigError
from repro.hw.nic import Envelope, nic_endpoint
from repro.hw.params import MachineParams
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import Mailbox, Network, Packet, Port
from repro.sim.resources import BoundedBuffer, Resource, Store


@dataclass(slots=True)
class FifoEntry:
    """One update queued in the vFIFO or dFIFO."""

    key: Any
    ts: Any
    value: Any
    size_bytes: int
    #: Scope the write belongs to (None outside <Lin, Scope>).
    scope: int | None = None
    #: Fires once the entry has been written into the FIFO's storage.
    written: Event = None  # type: ignore[assignment]
    #: Fires once the entry has drained (applied or skipped as obsolete).
    drained: Event = None  # type: ignore[assignment]
    skipped: bool = False
    #: Protocol write id the entry belongs to (observability correlation).
    op_id: Any = None
    #: Simulation time of the enqueue; stamped unconditionally in
    #: :meth:`SmartNic.make_entry` so FIFO-residency segments can be
    #: recorded at drain time without observer-dependent state.
    enqueued_at: float = -1.0


ApplyFn = Callable[[FifoEntry], Generator]


class SmartNic:
    """Per-node SmartNIC for MINOS-O and the Figure 12 ablations.

    Parameters
    ----------
    batching:
        Whether the host↔SNIC interface uses batched INV/ACK messages.
        (The flag itself is consumed by the protocol engine; it is stored
        here so hardware assembly code has one source of truth.)
    broadcast:
        Whether the Message Broadcast Module is present.  Dest-mapped
        sends fall back to unpack-and-send-each without it.
    """

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 network: Network, host_inbox: Mailbox,
                 batching: bool = True, broadcast: bool = True) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.network = network
        self.batching = batching
        self.broadcast = broadcast
        self.endpoint = nic_endpoint(node_id)
        self.cores = Resource(sim, params.snic.cores,
                              label=f"{self.endpoint}.cores")
        self.net_inbox = network.add_endpoint(
            self.endpoint,
            latency_s=params.network.latency,
            bandwidth_bps=params.network.bandwidth,
            gap_s=params.nic.inter_message_gap)
        self.from_host = Mailbox(sim, f"{self.endpoint}.from_host")
        self._pcie_up = Port(sim, params.pcie.latency, params.pcie.bandwidth,
                             name=f"{self.endpoint}.pcie_up")
        self._pcie_down = Port(sim, params.pcie.latency, params.pcie.bandwidth,
                               name=f"{self.endpoint}.pcie_down")
        self._host_inbox = host_inbox
        self._host_name = f"host{node_id}"
        self.vfifo = BoundedBuffer(sim, params.snic.vfifo_entries,
                                   label=f"{self.endpoint}.vfifo")
        self.dfifo = BoundedBuffer(sim, params.snic.dfifo_entries,
                                   label=f"{self.endpoint}.dfifo")
        self._tx_queue: Store = Store(sim, label=f"{self.endpoint}.txq")
        self.messages_sent = 0
        self.messages_received = 0
        self.vfifo_skipped = 0
        self._drains_started = False
        #: Crash flag: while halted the SNIC consumes and drops traffic
        #: instead of transmitting it (see :meth:`halt`).
        self.halted = False
        #: Optional repro.obs.Observability (``None``: every record site
        #: costs one attribute check); set via :meth:`attach_obs`.
        self.obs = None
        sim.spawn(self._tx_loop(), name=f"{self.endpoint}.tx")

    def attach_obs(self, obs) -> None:
        """Attach an observability recorder to the SNIC and its PCIe
        ports (so DMA / host-deposit traffic is accounted)."""
        self.obs = obs
        self._pcie_up.obs = obs
        self._pcie_down.obs = obs

    # -- compute & coherence ---------------------------------------------------

    def compute(self, duration: float) -> Generator:
        """Occupy one SNIC core for *duration* seconds."""
        if duration <= 0:
            return
        yield self.cores.request()
        try:
            yield self.sim.sleep(duration)
        finally:
            self.cores.release()

    def coherent_access(self) -> Event:
        """One access to coherent metadata (RDLock_Owner / the three TS
        fields) over the dedicated snoop bus (§V-B.2)."""
        return self.sim.sleep(self.params.snic.coherence_access)

    def sync_op(self) -> Generator:
        """One synchronization op (compare-and-swap) on the SNIC."""
        yield from self.compute(self.params.snic.sync_latency)

    # -- host <-> SNIC messaging ----------------------------------------------

    def host_deposit(self, envelope: Envelope) -> None:
        """Host drops *envelope* into its PCIe send queue (fire and forget)."""
        envelope.deposited_at = self.sim.now
        packet = Packet(payload=envelope, size_bytes=envelope.size_bytes,
                        src=self._host_name, dst=self.endpoint,
                        kind="pcie")
        self._pcie_up.post(packet, self.from_host)

    def send_to_host(self, payload: Any, size_bytes: int) -> None:
        """SNIC -> host message over PCIe (e.g. the batched ACK)."""
        packet = Packet(payload=payload, size_bytes=size_bytes,
                        src=self.endpoint, dst=self._host_name,
                        kind="pcie")
        self._pcie_down.post(packet, self._host_inbox)

    # -- SNIC -> network messaging -----------------------------------------------

    def send_message(self, dst_node: int, payload: Any,
                     size_bytes: int) -> None:
        """Queue a single-destination message for transmission."""
        self._tx_queue.put(("one", dst_node, payload, size_bytes))

    def send_multi(self, dst_nodes: Iterable[int], payload: Any,
                   size_bytes: int) -> None:
        """Queue the same message for several destinations.

        Uses the broadcast module when present; otherwise the tx loop
        sends per-destination copies one at a time (inter-message gap and
        per-message send cost apply, as in Table III).
        """
        self._tx_queue.put(("multi", list(dst_nodes), payload, size_bytes))

    def _send_cost(self, size_bytes: int) -> float:
        if size_bytes > self.params.control_size:
            return self.params.nic.send_inv_cost
        return self.params.nic.send_ack_cost

    def halt(self) -> int:
        """Crash the SNIC: drop queued traffic and stop transmitting.

        Clears the PCIe receive queue, the network receive queue, and the
        transmit queue so a restarted node comes back with empty queues
        (volatile SNIC state is lost in a crash).  Returns how many queued
        items were dropped; items arriving while halted are consumed and
        dropped by the tx loop / the engine's handler loops.
        """
        self.halted = True
        return (self.from_host.clear() + self.net_inbox.clear() +
                self._tx_queue.clear())

    def resume(self) -> None:
        """Restart the SNIC after a crash (queues start empty)."""
        self.halted = False

    def _tx_loop(self):
        while True:
            mode, dst, payload, size = yield self._tx_queue.get()
            if self.halted:
                continue  # crashed: consume and drop
            if mode == "one":
                yield self.sim.sleep(self._send_cost(size))
                self.messages_sent += 1
                yield self.network.send(self.endpoint, nic_endpoint(dst),
                                        payload, size)
            elif mode == "multi" and self.broadcast and dst:
                # An empty destination list (every peer excluded) skips
                # this arm: the per-copy loop below then sends nothing.
                yield self.sim.sleep(self.params.snic.broadcast_setup +
                                     self._send_cost(size))
                self.messages_sent += 1
                yield self.network.broadcast(
                    self.endpoint, [nic_endpoint(d) for d in dst],
                    payload, size)
            else:
                for node in dst:
                    yield self.sim.sleep(self._send_cost(size))
                    self.messages_sent += 1
                    yield self.network.send(self.endpoint,
                                            nic_endpoint(node), payload, size)

    # -- vFIFO / dFIFO ------------------------------------------------------------

    def make_entry(self, key: Any, ts: Any, value: Any, size_bytes: int,
                   scope: int | None = None,
                   op_id: Any = None) -> FifoEntry:
        entry = FifoEntry(key=key, ts=ts, value=value,
                          size_bytes=size_bytes, scope=scope, op_id=op_id,
                          enqueued_at=self.sim.now)
        entry.written = Event(self.sim)
        entry.drained = Event(self.sim)
        return entry

    def vfifo_enqueue(self, entry: FifoEntry) -> Generator:
        """Atomically enqueue *entry* into the vFIFO.

        Blocks while the FIFO is full (the Fig. 13 effect), then pays the
        465 ns/KB write latency (Table III).
        """
        yield self.vfifo.put(entry)
        if self.obs is not None:
            self.obs.gauge(self.node_id, "snic.vfifo.depth",
                           float(len(self.vfifo)))
        yield self.sim.sleep(self.params.vfifo_write_time(entry.size_bytes))
        entry.written.succeed()

    def dfifo_enqueue(self, entry: FifoEntry) -> Generator:
        """Atomically enqueue *entry* into the durable dFIFO.

        Once this completes the update is durable (the dFIFO is NVM on the
        SNIC), so nothing waits for the background drain to host NVM.
        """
        yield self.dfifo.put(entry)
        if self.obs is not None:
            self.obs.gauge(self.node_id, "snic.dfifo.depth",
                           float(len(self.dfifo)))
        yield self.sim.sleep(self.params.dfifo_write_time(entry.size_bytes))
        entry.written.succeed()

    def start_drains(self, vfifo_apply: ApplyFn, dfifo_apply: ApplyFn) -> None:
        """Start the background drain processes.

        *vfifo_apply* / *dfifo_apply* are generator functions performing
        the per-entry work (obsoleteness check, DMA to the host LLC or the
        host NVM log); supplied by the protocol engine because they touch
        protocol metadata.  An apply function must succeed the entry's
        ``drained`` event itself — typically after an asynchronous tail,
        so the drain worker is only held for the DMA issue.
        """
        if self._drains_started:
            raise ConfigError("drains already started")
        self._drains_started = True
        workers = max(1, self.params.snic.drain_workers)
        for worker in range(workers):
            self.sim.spawn(self._drain_loop(self.vfifo, vfifo_apply),
                           name=f"{self.endpoint}.vdrain{worker}")
            self.sim.spawn(self._drain_loop(self.dfifo, dfifo_apply),
                           name=f"{self.endpoint}.ddrain{worker}")

    def _drain_loop(self, fifo: BoundedBuffer, apply_fn: ApplyFn):
        while True:
            entry: FifoEntry = yield fifo.get()
            if not entry.written.triggered:
                yield entry.written
            # apply_fn is responsible for succeeding entry.drained (it may
            # finish the memory write asynchronously after the DMA).
            yield from apply_fn(entry)

    def dma_to_host(self, size_bytes: int) -> Event:
        """A DMA transfer over PCIe towards the host (drain path)."""
        return self._pcie_down.transfer(size_bytes)
