"""Network fabric: ports, links, mailboxes, and packet delivery.

The model follows the paper's methodology (§VII, Table III): a message's
end-to-end communication time is *serialization* (size / bandwidth, paid at
the sending port, which is busy for that long plus an inter-message gap)
plus a fixed *propagation latency*, after which the packet lands in the
destination mailbox.  Egress serialization at a single port is what makes
"the multiple INV messages in a transaction are sent one at a time"
(paper §IV) costly, and what the broadcast hardware of MINOS-O removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.resources import Store


def _fan_out(event: Event) -> None:
    """Run a coalesced delivery entry: each ``(packet, callback)`` in
    ``event._value`` gets its own fired delivery event, as if it had had
    an entry of its own."""
    sim = event.sim
    for packet, deliver in event._value:
        delivery = Event(sim)
        delivery._value = packet
        delivery.callbacks = None
        deliver(delivery)


@dataclass(slots=True)
class Packet:
    """A message in flight.

    ``payload`` is opaque to the network layer; the protocol layers put
    :class:`repro.core.messages.Message` objects here.  ``size_bytes``
    drives serialization time.  Timing fields are filled in by the port for
    the metrics layer's communication/computation breakdown.
    """

    payload: Any
    size_bytes: int
    src: str
    dst: str
    kind: str = "data"
    sent_at: float = -1.0
    delivered_at: float = -1.0

    def clone(self) -> "Packet":
        """A distinct copy (used by fault injection to duplicate a message
        in flight: delivery mutates per-packet timing fields)."""
        return Packet(payload=self.payload, size_bytes=self.size_bytes,
                      src=self.src, dst=self.dst, kind=self.kind,
                      sent_at=self.sent_at)


class Mailbox(Store):
    """A named receive queue for packets: ``yield box.get()`` for a
    process; a callback-driven device stage takes the deliveries itself
    (:meth:`deliver_to`) and keeps its backlog here (``put`` / :meth:`poll`).
    """

    __slots__ = ("name", "_deliver_cb")

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, label=name)
        self.name = name
        #: What :meth:`Port._schedule_deliveries` hands a delivery to.
        self._deliver_cb: Callable[[Event], None] = self._enqueue

    def _enqueue(self, event: Event) -> None:
        self.put(event._value)

    def deliver_to(self, callback: Callable[[Event], None]) -> None:
        """Hand each delivery to ``callback(event)`` (packet in
        ``event.value``) at its arrival instant instead of queueing it."""
        self._deliver_cb = callback

    def poll(self) -> Optional[Packet]:
        """Non-blocking ``get``: the oldest queued packet, or ``None``."""
        return self._items.popleft() if self._items else None


class Port:
    """A serializing egress port.

    Packets queue behind each other: each occupies the port for
    ``size / bandwidth`` seconds plus ``gap`` seconds before the next may
    start.  Delivery into the destination mailbox happens ``latency``
    seconds after serialization completes.

    ``send_broadcast`` models MINOS-O's Message Broadcast Module: one
    serialization and one calendar entry fan out to every destination
    (paper §V-B.3).
    """

    __slots__ = ("sim", "latency", "bandwidth", "gap", "name",
                 "_busy_until", "packets_sent", "bytes_sent",
                 "fault_injector", "obs")

    def __init__(self, sim: Simulator, latency_s: float,
                 bandwidth_bps: float, gap_s: float = 0.0,
                 name: str = "") -> None:
        if bandwidth_bps <= 0:
            raise SimulationError(f"bandwidth must be positive: {bandwidth_bps}")
        if latency_s < 0 or gap_s < 0:
            raise SimulationError("latency and gap must be non-negative")
        self.sim = sim
        self.latency = latency_s
        self.bandwidth = bandwidth_bps
        self.gap = gap_s
        self.name = name
        self._busy_until = 0.0
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`repro.faults.FaultInjector`.  ``None`` (the
        #: default) keeps delivery on the exact fault-free fast path.
        self.fault_injector = None
        #: Optional :class:`repro.obs.Observability` for per-packet fabric
        #: counters; same no-op-when-``None`` contract as the injector.
        self.obs = None

    # -- internals ----------------------------------------------------------

    def _claim(self, size_bytes: int) -> tuple[float, float]:
        """Reserve the port; returns (serialization_done, wait)."""
        now = self.sim.now
        start = max(now, self._busy_until)
        ser = size_bytes / self.bandwidth
        done = start + ser
        self._busy_until = done + self.gap
        return done, done - now

    def _deliver(self,
                 deliveries: List[Tuple[Packet, Mailbox, float]]) -> None:
        injector = self.fault_injector
        if injector is not None:
            # Fault-injection path: the injector decides which copies of
            # each packet arrive and when.
            self._schedule_deliveries([
                (copy, mailbox, arrival) for packet, mailbox, when
                in deliveries
                for copy, arrival in injector.deliveries(packet, when)])
        else:
            self._schedule_deliveries(deliveries)

    def _schedule_deliveries(
            self, deliveries: List[Tuple[Packet, Mailbox, float]]) -> None:
        """Put ``(packet, mailbox, arrival)`` *deliveries* on the calendar
        in order, one entry per run of consecutive equal arrival times.

        A delivery at the arrival time of the entry pushed just before it
        joins that entry: pushes made back to back take adjacent sequence
        numbers, so nothing could sort between them, and one entry that
        hands each packet over in order is what the kernel would have run.
        """
        sim = self.sim
        entry = None
        for packet, mailbox, when in deliveries:
            packet.delivered_at = when
            if entry is not None and when == entry_when:
                callbacks = entry.callbacks
                if callbacks[0] is not _fan_out:
                    entry._value = [(entry._value, callbacks[0])]
                    callbacks[0] = _fan_out
                entry._value.append((packet, mailbox._deliver_cb))
                continue
            entry = Event(sim)
            entry._value = packet
            entry.callbacks.append(mailbox._deliver_cb)
            entry_when = when
            sim._schedule_event(entry, when - sim.now)

    # -- API ------------------------------------------------------------------

    def post(self, packet: Packet, mailbox: Mailbox) -> float:
        """Transmit *packet* to *mailbox*, fire and forget: claim the
        port, count the packet, schedule its delivery.  Returns the
        seconds until serialization at this port is done; a sender that
        need not wait for that spends no calendar entry on it."""
        packet.sent_at = self.sim.now
        done, wait = self._claim(packet.size_bytes)
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        if self.obs is not None:
            self.obs.net_packet(self.name, packet.kind, packet.size_bytes)
        self._deliver([(packet, mailbox, done + self.latency)])
        return wait

    def send(self, packet: Packet, mailbox: Mailbox) -> Event:
        """:meth:`post` *packet*, and return an event that fires when
        serialization at this port is done (i.e., when the sender may
        consider the message handed off)."""
        return self.sim.sleep(self.post(packet, mailbox), value=packet)

    def transfer(self, size_bytes: int) -> Event:
        """Claim the port for a raw transfer (e.g. a DMA) with no mailbox
        delivery; fires after serialization plus propagation latency."""
        _done, wait = self._claim(size_bytes)
        self.bytes_sent += size_bytes
        return self.sim.sleep(wait + self.latency)

    def post_broadcast(self,
                       packets_and_boxes: Iterable[tuple[Packet, Mailbox]],
                       size_bytes: int) -> float:
        """:meth:`post` one message to many destinations with one
        serialization.

        *packets_and_boxes* supplies a distinct :class:`Packet` per
        destination (payloads may be shared), since delivery mutates packet
        timing fields.
        """
        pairs = list(packets_and_boxes)
        if not pairs:
            raise SimulationError("broadcast with no destinations")
        done, wait = self._claim(size_bytes)
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        if self.obs is not None:
            self.obs.net_packet(self.name, "broadcast", size_bytes)
        now = self.sim.now
        when = done + self.latency
        for packet, _mailbox in pairs:
            packet.sent_at = now
        self._deliver([(packet, mailbox, when) for packet, mailbox in pairs])
        return wait

    def send_broadcast(self,
                       packets_and_boxes: Iterable[tuple[Packet, Mailbox]],
                       size_bytes: int) -> Event:
        """:meth:`post_broadcast`, and return an event that fires when
        the one serialization is done."""
        return self.sim.sleep(self.post_broadcast(packets_and_boxes,
                                                  size_bytes))


class Network:
    """A collection of named mailboxes plus per-endpoint egress ports.

    The topology is a full mesh (every endpoint can reach every other), as
    in the paper's cluster.  Endpoints are registered with their own egress
    characteristics, so the host↔SmartNIC PCIe hop and the SNIC↔SNIC
    network hop are just two Ports with different parameters.
    """

    __slots__ = ("sim", "_mailboxes", "_ports", "_fault_injector", "_obs")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._mailboxes: Dict[str, Mailbox] = {}
        self._ports: Dict[str, Port] = {}
        self._fault_injector = None
        self._obs = None

    def add_endpoint(self, name: str, latency_s: float, bandwidth_bps: float,
                     gap_s: float = 0.0) -> Mailbox:
        """Register endpoint *name*; returns its receive mailbox."""
        if name in self._mailboxes:
            raise SimulationError(f"duplicate endpoint {name!r}")
        mailbox = Mailbox(self.sim, name)
        self._mailboxes[name] = mailbox
        port = Port(self.sim, latency_s, bandwidth_bps, gap_s, name=name)
        port.fault_injector = self._fault_injector
        port.obs = self._obs
        self._ports[name] = port
        return mailbox

    def install_fault_injector(self, injector) -> None:
        """Attach *injector* to every fabric port (present and future).
        Pass ``None`` to uninstall and return to the fault-free path."""
        self._fault_injector = injector
        for port in self._ports.values():
            port.fault_injector = injector

    def install_obs(self, obs) -> None:
        """Attach an observability recorder to every fabric port (present
        and future).  Pass ``None`` to detach."""
        self._obs = obs
        for port in self._ports.values():
            port.obs = obs

    def mailbox(self, name: str) -> Mailbox:
        return self._mailboxes[name]

    def port(self, name: str) -> Port:
        return self._ports[name]

    def endpoints(self) -> List[str]:
        return list(self._mailboxes)

    def send(self, src: str, dst: str, payload: Any, size_bytes: int,
             kind: str = "data") -> Event:
        """Send *payload* from *src* to *dst*; see :meth:`Port.send`."""
        packet = Packet(payload=payload, size_bytes=size_bytes,
                        src=src, dst=dst, kind=kind)
        return self._ports[src].send(packet, self._mailboxes[dst])

    def broadcast(self, src: str, dsts: Iterable[str], payload: Any,
                  size_bytes: int, kind: str = "data") -> Event:
        """Hardware broadcast from *src* to every endpoint in *dsts*."""
        pairs = [(Packet(payload=payload, size_bytes=size_bytes, src=src,
                         dst=dst, kind=kind), self._mailboxes[dst])
                 for dst in dsts]
        return self._ports[src].send_broadcast(pairs, size_bytes)
