"""The baseline NIC: a store-and-forward pipe between host and network.

In MINOS-B the NIC does no protocol work: the host deposits messages in its
send queue, the NIC moves them across PCIe, pays a per-message send cost
(Table III: 200 ns for a data-carrying INV, 100 ns for a control message),
and serializes them onto the network with a 100 ns inter-message gap.  This
is exactly the bottleneck §IV identifies: "the multiple INV messages in a
transaction are sent one at a time".

Doing no protocol work, the NIC is not a simulated process: each direction
is a callback-driven FIFO server.  A delivery lands in the stage's queue, an
idle stage starts service on the spot, and each completion is **one** calendar
entry (:meth:`~repro.sim.kernel.Simulator.call_at`) — tx: send cost elapsed,
claim the egress port, schedule the remote delivery; rx: recv cost elapsed,
claim PCIe down, schedule the host-inbox delivery — at the float a process
doing ``yield sim.sleep(cost)`` would have resumed at
(``tests/hw/test_nic_reference.py`` keeps that process form as the oracle).

Two of the Figure 12 ablation flags live here:

* ``batching`` — the host may deposit one *dest-mapped* message covering
  many destinations (a single PCIe transfer).  A baseline NIC must then
  **unpack** it into per-destination sends, paying an unpack cost per
  destination; only broadcast hardware can consume a dest map whole.
* ``broadcast`` — the NIC has a Message Broadcast Module (§V-B.3): a
  dest-mapped message is serialized onto the network once and fanned out in
  hardware.  Without a dest map there is nothing to broadcast, which is why
  broadcast alone does not help MINOS-B (§VIII-D).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import ConfigError
from repro.hw.params import MachineParams
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import Mailbox, Network, Packet, Port


@dataclass(slots=True)
class Envelope:
    """A message travelling between a host and its NIC, or NIC to NIC.

    ``dests`` set (a destination list) marks a *dest-mapped* (batched)
    message; otherwise ``dst`` names the single destination node.
    """

    payload: Any
    size_bytes: int
    src_node: int
    dst: Optional[int] = None
    dests: Optional[List[int]] = None
    #: Simulated time the sender deposited the message in its send queue
    #: (start of "communication time" per the paper's §IV definition).
    deposited_at: float = -1.0

    def __post_init__(self) -> None:
        if (self.dst is None) == (self.dests is None):
            raise ConfigError("Envelope needs exactly one of dst / dests")

    @property
    def is_batched(self) -> bool:
        return self.dests is not None


@lru_cache(maxsize=1024)
def nic_endpoint(node_id: int) -> str:
    """The network-fabric endpoint name for node *node_id*'s NIC.

    Memoized (bounded ``lru_cache`` on a pure function — the sanctioned
    form of the interning this does): called once per message hop, and
    the f-string rendering is measurable at that frequency.
    """
    return f"nic{node_id}"


class BaselineNic:
    """Per-node NIC for MINOS-B (optionally with batching/broadcast hw)."""

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 network: Network, host_inbox: Mailbox,
                 broadcast: bool = False) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.network = network
        self.broadcast = broadcast
        self.endpoint = nic_endpoint(node_id)
        #: Network receive queue (filled by the fabric).
        self.net_inbox = network.add_endpoint(
            self.endpoint,
            latency_s=params.network.latency,
            bandwidth_bps=params.network.bandwidth,
            gap_s=params.nic.inter_message_gap)
        #: PCIe queue of envelopes deposited by the host.
        self.from_host = Mailbox(sim, f"{self.endpoint}.from_host")
        # PCIe is full duplex: one port per direction.
        self._pcie_up = Port(sim, params.pcie.latency, params.pcie.bandwidth,
                             name=f"{self.endpoint}.pcie_up")
        self._pcie_down = Port(sim, params.pcie.latency, params.pcie.bandwidth,
                               name=f"{self.endpoint}.pcie_down")
        self._host_inbox = host_inbox
        self._host_name = f"host{node_id}"
        self.messages_sent = 0
        self.messages_received = 0
        #: Crash flag: while halted the NIC consumes and drops traffic
        #: instead of forwarding it (see :meth:`halt`).
        self.halted = False
        self._egress = network.port(self.endpoint)
        # A stage is busy from a dequeue until it finds its mailbox empty;
        # arrivals meanwhile wait there.
        self._tx_busy = self._rx_busy = False
        #: When the egress port is done with the last message (set when tx
        #: goes idle with nothing queued behind it).
        self._tx_free_at = 0.0
        #: Tie-break position (:meth:`Simulator.ticket`) taken right after
        #: each send / unpack step, where the process form pushed its next
        #: entry: a wake-up armed late, or an unpacked copy's send cost,
        #: uses it so that same-instant ties between NICs resolve as before.
        self._tx_ticket = 0
        #: Copies of the dest-mapped message being unpacked.
        self._tx_unpacked: Deque[Envelope] = deque()
        self.from_host.deliver_to(self._tx_arrive)
        self.net_inbox.deliver_to(self._rx_arrive)

    # -- host-side API --------------------------------------------------------

    def host_deposit(self, envelope: Envelope) -> None:
        """Host drops *envelope* into its send queue (fire and forget).

        The PCIe port model charges serialization and latency; the host is
        free immediately, matching the paper's definition that
        communication time starts at this deposit.
        """
        envelope.deposited_at = self.sim.now
        packet = Packet(payload=envelope, size_bytes=envelope.size_bytes,
                        src=self._host_name, dst=self.endpoint,
                        kind="pcie")
        self._pcie_up.post(packet, self.from_host)

    # -- crash semantics --------------------------------------------------------

    def halt(self) -> int:
        """Crash the NIC: drop everything queued and stop forwarding.

        A crashed node must not keep transmitting envelopes its host
        deposited before dying, nor deliver received packets on restart
        as if nothing happened.  Returns how many queued packets were
        dropped; packets arriving while halted are consumed and dropped
        by the tx/rx stages, which check the flag at each dequeue (a
        message already in service is still forwarded).
        """
        self.halted = True
        return self.from_host.clear() + self.net_inbox.clear()

    def resume(self) -> None:
        """Restart the NIC after a crash (queues start empty)."""
        self.halted = False

    # -- internals --------------------------------------------------------------

    def _send_cost(self, size_bytes: int) -> float:
        """NIC processing cost to send one message (Table III)."""
        if size_bytes > self.params.control_size:
            return self.params.nic.send_inv_cost
        return self.params.nic.send_ack_cost

    def _dequeue(self, queue: Mailbox) -> Optional[Packet]:
        """The next queued packet a stage should serve, if any."""
        if self.halted:
            queue.clear()  # crashed: consume and drop
            return None
        return queue.poll()

    # tx stage: PCIe queue -> send cost -> egress port -------------------------

    def _tx_arrive(self, event: Event) -> None:
        """A host deposit has crossed PCIe."""
        if self._tx_busy:
            self.from_host.put(event._value)
        elif self.sim.now < self._tx_free_at:
            # Idle, but the last message is still on the egress port.
            self.from_host.put(event._value)
            self._tx_busy = True
            self.sim.call_at(self._tx_free_at, self._tx_next,
                             ticket=self._tx_ticket)
        elif not self.halted:
            self._tx_busy = True
            self._tx_begin(event._value.payload)

    def _tx_next(self, _event: Optional[Event] = None) -> None:
        """The egress port is free: start on the next message, else idle."""
        if self._tx_unpacked:
            self._tx_begin(self._tx_unpacked.popleft(), self._tx_ticket)
            return
        packet = self._dequeue(self.from_host)
        if packet is None:
            self._tx_busy = False
        else:
            self._tx_begin(packet.payload)

    def _tx_begin(self, envelope: Envelope, ticket: int = 0) -> None:
        """Schedule the completion of *envelope*'s first service step."""
        sim = self.sim
        cost = self._send_cost(envelope.size_bytes)
        if not envelope.is_batched:
            sim.call_at(sim.now + cost, self._tx_send, envelope, ticket)
        elif self.broadcast and envelope.dests:
            sim.call_at(sim.now + (self.params.snic.broadcast_setup + cost),
                        self._tx_send, envelope)
        else:
            # No broadcast module (or an empty map: every peer excluded,
            # nothing to broadcast): the firmware walks the destination
            # map (one fixed unpack step) and replays the payload per
            # destination, as a dumb pipe's DMA engine would.
            sim.call_at(sim.now + self.params.snic.batch_unpack_per_dest,
                        self._tx_unpack, envelope)
            self._tx_ticket = sim.ticket()

    def _tx_unpack(self, event: Event) -> None:
        envelope: Envelope = event._value
        self._tx_unpacked.extend(replace(envelope, dst=dst, dests=None)
                                 for dst in envelope.dests)
        self._tx_next()

    def _addressed(self, envelope: Envelope,
                   dst: int) -> Tuple[Packet, Mailbox]:
        """*envelope* as a fabric packet for node *dst*, with its mailbox."""
        name = nic_endpoint(dst)
        return (Packet(payload=envelope, size_bytes=envelope.size_bytes,
                       src=self.endpoint, dst=name),
                self.network.mailbox(name))

    def _tx_send(self, event: Event) -> None:
        """Send cost elapsed: put the message on the wire — one
        serialization and hardware fan-out if it is still dest-mapped —
        and wake up when the port is free only if something is queued."""
        envelope: Envelope = event._value
        self.messages_sent += 1
        if envelope.is_batched:
            wait = self._egress.post_broadcast(
                [self._addressed(envelope, dst) for dst in envelope.dests],
                envelope.size_bytes)
        else:
            wait = self._egress.post(*self._addressed(envelope, envelope.dst))
        free_at = self.sim.now + wait
        if self._tx_unpacked or len(self.from_host):
            self.sim.call_at(free_at, self._tx_next)
        else:
            self._tx_free_at = free_at
            self._tx_busy = False
        self._tx_ticket = self.sim.ticket()

    # rx stage: fabric queue -> recv cost -> PCIe down ---------------------------

    def _rx_arrive(self, event: Event) -> None:
        """A packet has arrived from the fabric."""
        if self._rx_busy:
            self.net_inbox.put(event._value)
        elif not self.halted:
            self._rx_begin(event._value)

    def _rx_begin(self, packet: Packet) -> None:
        self._rx_busy = True
        self.messages_received += 1
        self.sim.call_at(self.sim.now + self.params.nic.recv_cost,
                         self._rx_done, packet)

    def _rx_done(self, event: Event) -> None:
        """Recv cost elapsed: forward across PCIe, start on the next."""
        packet: Packet = event._value
        down = Packet(payload=packet.payload, size_bytes=packet.size_bytes,
                      src=self.endpoint, dst=self._host_name, kind="pcie")
        self._pcie_down.post(down, self._host_inbox)
        packet = self._dequeue(self.net_inbox)
        if packet is None:
            self._rx_busy = False
        else:
            self._rx_begin(packet)
