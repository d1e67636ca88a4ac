"""Unit tests for ports, mailboxes, and the network fabric."""

import pytest

from repro.errors import SimulationError
from repro.sim import Network, Simulator
from repro.sim.network import Mailbox, Packet, Port


@pytest.fixture
def sim():
    return Simulator()


def make_port(sim, latency=100e-9, bandwidth=1e9, gap=0.0):
    return Port(sim, latency, bandwidth, gap)


class TestPort:
    def test_delivery_time_is_serialization_plus_latency(self, sim):
        port = make_port(sim, latency=100e-9, bandwidth=1e9)
        box = Mailbox(sim, "dst")
        arrivals = []

        def receiver():
            packet = yield box.get()
            arrivals.append((sim.now, packet.payload))

        sim.spawn(receiver())
        port.send(Packet(payload="m", size_bytes=1000, src="a", dst="b"), box)
        sim.run()
        # 1000B / 1e9 Bps = 1us serialization + 100ns latency
        assert arrivals[0][0] == pytest.approx(1.1e-6)

    def test_sender_freed_after_serialization_only(self, sim):
        port = make_port(sim, latency=1.0, bandwidth=1e3)
        box = Mailbox(sim, "dst")

        def sender():
            yield port.send(Packet(payload=0, size_bytes=1000,
                                   src="a", dst="b"), box)
            return sim.now

        # serialization = 1s; latency (1s) is NOT the sender's problem
        assert sim.run_process(sender()) == pytest.approx(1.0)

    def test_back_to_back_sends_serialize(self, sim):
        port = make_port(sim, latency=0.0, bandwidth=1e3, gap=0.5)
        box = Mailbox(sim, "dst")
        arrivals = []

        def receiver():
            while True:
                packet = yield box.get()
                arrivals.append(sim.now)

        sim.spawn(receiver())
        for _ in range(3):
            port.send(Packet(payload=0, size_bytes=1000, src="a", dst="b"),
                      box)
        sim.run()
        # each takes 1s on the wire with a 0.5s gap between starts
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.5),
                            pytest.approx(4.0)]

    def test_broadcast_single_serialization(self, sim):
        port = make_port(sim, latency=0.2, bandwidth=1e3)
        boxes = [Mailbox(sim, f"d{i}") for i in range(3)]
        arrivals = []

        def receiver(box):
            packet = yield box.get()
            arrivals.append(sim.now)

        for box in boxes:
            sim.spawn(receiver(box))
        pairs = [(Packet(payload=0, size_bytes=1000, src="a", dst=b.name), b)
                 for b in boxes]
        port.send_broadcast(pairs, size_bytes=1000)
        sim.run()
        # all three delivered at the same instant: 1s ser + 0.2s latency
        assert arrivals == [pytest.approx(1.2)] * 3

    def test_broadcast_requires_destinations(self, sim):
        port = make_port(sim)
        with pytest.raises(SimulationError):
            port.send_broadcast([], size_bytes=10)

    def test_transfer_claims_port(self, sim):
        port = make_port(sim, latency=0.5, bandwidth=1e3)
        done = []

        def proc():
            yield port.transfer(1000)
            done.append(sim.now)

        sim.run_process(proc())
        assert done == [pytest.approx(1.5)]

    def test_invalid_parameters(self, sim):
        with pytest.raises(SimulationError):
            Port(sim, latency_s=0.0, bandwidth_bps=0.0)
        with pytest.raises(SimulationError):
            Port(sim, latency_s=-1.0, bandwidth_bps=1.0)

    def test_byte_accounting(self, sim):
        port = make_port(sim)
        box = Mailbox(sim, "d")
        port.send(Packet(payload=0, size_bytes=64, src="a", dst="d"), box)
        port.send(Packet(payload=0, size_bytes=64, src="a", dst="d"), box)
        assert port.packets_sent == 2
        assert port.bytes_sent == 128


class TestPost:
    """The fire-and-forget twins: same claim, count and delivery as
    ``send`` / ``send_broadcast``, no serialization-done event."""

    def packet(self):
        return Packet(payload="m", size_bytes=1000, src="a", dst="b")

    def test_post_returns_the_wait_and_schedules_only_the_delivery(self, sim):
        port = make_port(sim, latency=100e-9, bandwidth=1e9, gap=50e-9)
        box = Mailbox(sim, "dst")
        pushes = []
        sim.schedule_observer = lambda event, delay: pushes.append(delay)
        assert port.post(self.packet(), box) == pytest.approx(1e-6)
        # queued behind the first packet and the gap
        assert port.post(self.packet(), box) == pytest.approx(2.05e-6)
        assert pushes == [pytest.approx(1.1e-6), pytest.approx(2.15e-6)]
        assert (port.packets_sent, port.bytes_sent) == (2, 2000)
        sim.run()
        assert len(box) == 2 and sim.events_processed == 2

    def test_send_is_post_plus_the_wait(self, sim):
        port = make_port(sim)
        box = Mailbox(sim, "dst")
        pushes = []
        sim.schedule_observer = lambda event, delay: pushes.append(delay)
        port.send(self.packet(), box)
        assert pushes == [pytest.approx(1.1e-6), pytest.approx(1e-6)]

    def test_post_broadcast_single_serialization(self, sim):
        port = make_port(sim, latency=0.0, bandwidth=1e3)
        boxes = [Mailbox(sim, f"d{i}") for i in range(3)]
        wait = port.post_broadcast(
            [(self.packet(), box) for box in boxes], 1000)
        assert wait == pytest.approx(1.0)
        sim.run()
        assert [len(box) for box in boxes] == [1, 1, 1]
        # one calendar entry for the three same-instant deliveries
        assert sim.events_processed == 1 and port.packets_sent == 1

    def injected_broadcast(self, sim, extra_s):
        """A 3-way broadcast through an injector that adds ``extra_s[i]``
        to destination *i*'s arrival and duplicates the last packet;
        returns ``(arrivals, calendar pushes)``."""
        class Injector:
            def deliveries(self, packet, when):
                arrival = when + extra_s[int(packet.dst[1:])]
                copies = [(packet, arrival)]
                if packet.dst == "d2":
                    copies.append((packet.clone(), arrival))
                return copies

        port = make_port(sim, latency=0.0, bandwidth=1e3)
        port.fault_injector = Injector()
        boxes = [Mailbox(sim, f"d{i}") for i in range(3)]
        arrivals = []
        for box in boxes:
            box.deliver_to(lambda event: arrivals.append(
                (sim.now, event.value.dst, event.callbacks)))
        pushes = []
        sim.schedule_observer = lambda event, delay: pushes.append(delay)
        port.post_broadcast([(Packet(payload="m", size_bytes=1000, src="a",
                                     dst=box.name), box) for box in boxes],
                            1000)
        sim.run()
        return arrivals, pushes

    def test_injected_port_keeps_one_entry_per_arrival_time(self, sim):
        arrivals, pushes = self.injected_broadcast(sim, [0.0, 0.0, 0.5])
        assert pushes == [1.0, 1.5]
        assert arrivals == [(1.0, "d0", None), (1.0, "d1", None),
                            (1.5, "d2", None), (1.5, "d2", None)]
        assert sim.events_processed == 2

    def test_only_consecutive_equal_arrivals_share_an_entry(self, sim):
        arrivals, pushes = self.injected_broadcast(sim, [0.0, 0.5, 0.0])
        assert pushes == [1.0, 1.5, 1.0]
        assert [(when, dst) for when, dst, _ in arrivals] == [
            (1.0, "d0"), (1.0, "d2"), (1.0, "d2"), (1.5, "d1")]
        assert sim.events_processed == 3


class TestMailboxConsumer:
    def test_deliver_to_hands_over_the_delivery_event(self, sim):
        port = make_port(sim)
        box = Mailbox(sim, "dst")
        seen = []
        box.deliver_to(lambda event: seen.append((sim.now, event.value)))
        packet = Packet(payload="m", size_bytes=1000, src="a", dst="b")
        port.post(packet, box)
        sim.run()
        assert seen == [(pytest.approx(1.1e-6), packet)]
        assert len(box) == 0  # the consumer decides whether to queue

    def test_poll_is_a_non_blocking_get(self, sim):
        box = Mailbox(sim, "dst")
        assert box.poll() is None
        box.put("first")
        box.put("second")
        assert (box.poll(), len(box)) == ("first", 1)
        assert box.clear() == 1 and box.poll() is None


class TestNetwork:
    def test_end_to_end_send(self, sim):
        net = Network(sim)
        net.add_endpoint("a", 100e-9, 1e9)
        net.add_endpoint("b", 100e-9, 1e9)
        results = []

        def receiver():
            packet = yield net.mailbox("b").get()
            results.append(packet.payload)

        sim.spawn(receiver())
        net.send("a", "b", {"hello": 1}, size_bytes=64)
        sim.run()
        assert results == [{"hello": 1}]

    def test_duplicate_endpoint_rejected(self, sim):
        net = Network(sim)
        net.add_endpoint("a", 0, 1e9)
        with pytest.raises(SimulationError):
            net.add_endpoint("a", 0, 1e9)

    def test_endpoints_listing(self, sim):
        net = Network(sim)
        net.add_endpoint("x", 0, 1e9)
        net.add_endpoint("y", 0, 1e9)
        assert net.endpoints() == ["x", "y"]

    def test_broadcast_reaches_all(self, sim):
        net = Network(sim)
        for name in "abcd":
            net.add_endpoint(name, 0, 1e9)
        seen = []

        def receiver(name):
            packet = yield net.mailbox(name).get()
            seen.append((name, packet.payload))

        for name in "bcd":
            sim.spawn(receiver(name))
        net.broadcast("a", ["b", "c", "d"], "announce", size_bytes=64)
        sim.run()
        assert sorted(seen) == [("b", "announce"), ("c", "announce"),
                                ("d", "announce")]
