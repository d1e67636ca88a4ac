"""Tests for the baseline NIC pipe (timing and batching/broadcast)."""

import pytest

from repro.errors import ConfigError
from repro.hw.nic import BaselineNic, Envelope, nic_endpoint
from repro.hw.params import DEFAULT_MACHINE
from repro.sim import Network, Simulator
from repro.sim.network import Mailbox


def build_pair(broadcast=False):
    """Two nodes: NIC 0 (sender under test) and NICs 1-3 (receivers)."""
    sim = Simulator()
    net = Network(sim)
    hosts = [Mailbox(sim, f"host{i}.inbox") for i in range(4)]
    nics = [BaselineNic(sim, i, DEFAULT_MACHINE, net, hosts[i],
                        broadcast=broadcast) for i in range(4)]
    return sim, net, hosts, nics


class TestEnvelope:
    def test_needs_exactly_one_destination_form(self):
        with pytest.raises(ConfigError):
            Envelope(payload=1, size_bytes=64, src_node=0)
        with pytest.raises(ConfigError):
            Envelope(payload=1, size_bytes=64, src_node=0, dst=1,
                     dests=[1, 2])

    def test_is_batched(self):
        single = Envelope(payload=1, size_bytes=64, src_node=0, dst=1)
        multi = Envelope(payload=1, size_bytes=64, src_node=0, dests=[1, 2])
        assert not single.is_batched
        assert multi.is_batched

    def test_endpoint_naming(self):
        assert nic_endpoint(3) == "nic3"


class TestDelivery:
    def test_single_message_end_to_end(self):
        sim, _net, hosts, nics = build_pair()
        received = []

        def receiver():
            packet = yield hosts[1].get()
            received.append((sim.now, packet.payload.payload))

        sim.spawn(receiver())
        nics[0].host_deposit(Envelope(payload="msg", size_bytes=1024,
                                      src_node=0, dst=1))
        sim.run()
        assert received and received[0][1] == "msg"
        # PCIe up + NIC send + network + NIC recv + PCIe down: ~2us scale
        assert 1e-6 < received[0][0] < 4e-6

    def test_deposit_records_time(self):
        sim, _net, _hosts, nics = build_pair()
        env = Envelope(payload="x", size_bytes=64, src_node=0, dst=1)
        nics[0].host_deposit(env)
        assert env.deposited_at == sim.now

    def test_consecutive_sends_are_staggered(self):
        """Per-message send cost + inter-message gap (Table III)."""
        sim, _net, hosts, nics = build_pair()
        arrivals = []

        def receiver(i):
            packet = yield hosts[i].get()
            arrivals.append((i, sim.now))

        for i in (1, 2, 3):
            sim.spawn(receiver(i))
        for i in (1, 2, 3):
            nics[0].host_deposit(Envelope(payload="inv", size_bytes=1024,
                                          src_node=0, dst=i))
        sim.run()
        times = sorted(t for _i, t in arrivals)
        assert times[1] - times[0] > 3e-7  # staggered, not simultaneous
        assert times[2] - times[1] > 3e-7

    def test_batched_without_broadcast_unpacks_per_destination(self):
        sim, _net, hosts, nics = build_pair(broadcast=False)
        arrivals = []

        def receiver(i):
            packet = yield hosts[i].get()
            arrivals.append(sim.now)

        for i in (1, 2, 3):
            sim.spawn(receiver(i))
        nics[0].host_deposit(Envelope(payload="inv", size_bytes=1024,
                                      src_node=0, dests=[1, 2, 3]))
        sim.run()
        assert len(arrivals) == 3
        assert max(arrivals) - min(arrivals) > 3e-7  # still serialized
        assert nics[0].messages_sent == 3

    def test_batched_with_broadcast_single_serialization(self):
        sim, _net, hosts, nics = build_pair(broadcast=True)
        arrivals = []

        def receiver(i):
            packet = yield hosts[i].get()
            arrivals.append(sim.now)

        for i in (1, 2, 3):
            sim.spawn(receiver(i))
        nics[0].host_deposit(Envelope(payload="inv", size_bytes=1024,
                                      src_node=0, dests=[1, 2, 3]))
        sim.run()
        assert len(arrivals) == 3
        # hardware fan-out: all copies hit the wire together
        assert max(arrivals) - min(arrivals) < 1e-9
        assert nics[0].messages_sent == 1


    def test_empty_destination_map_sends_nothing(self):
        """Every peer excluded: a dest-mapped envelope with no
        destinations is consumed without a send, a count or the
        broadcast set-up, so the next message leaves exactly when it
        would on a NIC without the broadcast module."""
        arrivals = {}
        for broadcast in (False, True):
            sim, net, hosts, nics = build_pair(broadcast=broadcast)
            got = []

            def receiver():
                yield hosts[1].get()
                got.append(sim.now)

            sim.spawn(receiver())
            nics[0].host_deposit(Envelope(payload="val", size_bytes=64,
                                          src_node=0, dests=[]))
            nics[0].host_deposit(Envelope(payload="ack", size_bytes=64,
                                          src_node=0, dst=1))
            sim.run()
            assert nics[0].messages_sent == 1
            assert net.port(nics[0].endpoint).packets_sent == 1
            arrivals[broadcast] = got
        assert arrivals[True] == arrivals[False] and len(arrivals[True]) == 1


class TestTableIIITimings:
    """The timing model pinned by numbers worked out by hand from Table
    III (ns): PCIe 500 latency at 6.25 B/ns, NIC send cost 200 (data) /
    100 (control), network 150 latency at 7 B/ns, 100 inter-message gap,
    recv cost 100."""

    PCIE_SER = 1024 / 6.25          # 163.84
    NET_SER = 1024 / 7              # 146.2857...

    def burst(self, dsts):
        sim, _net, hosts, nics = build_pair()
        arrivals = []
        for i in set(dsts):
            hosts[i].deliver_to(
                lambda event: arrivals.append(sim.now * 1e9))
        for i in dsts:
            nics[0].host_deposit(Envelope(payload="inv", size_bytes=1024,
                                          src_node=0, dst=i))
        sim.run()
        return arrivals

    def test_three_message_burst(self):
        first, second, third = self.burst((1, 2, 3))
        # up PCIe, send cost, wire, recv cost, down PCIe
        assert first == pytest.approx(
            self.PCIE_SER + 500 + 200 + self.NET_SER + 150 + 100 +
            self.PCIE_SER + 500, rel=1e-12)
        assert first == pytest.approx(1923.9657142857143, rel=1e-12)
        # The NIC starts the next message's send cost when the previous
        # one has left the port, so messages leave one send cost + one
        # serialization apart; the 100 ns gap is hidden under the 200 ns
        # send cost that follows it.
        step = 200 + self.NET_SER
        assert second - first == pytest.approx(step, rel=1e-9)
        assert third - second == pytest.approx(step, rel=1e-9)

    def test_burst_to_one_destination_keeps_the_spacing(self):
        """The receiving NIC (100 ns a message) is never the bottleneck."""
        first, second, third = self.burst((1, 1, 1))
        step = 200 + self.NET_SER
        assert second - first == pytest.approx(step, rel=1e-9)
        assert third - second == pytest.approx(step, rel=1e-9)

    def test_control_messages_are_paced_by_cost_then_gap(self):
        """64-byte messages: send cost 100 ns equals the gap, so the port
        is claimed exactly as it frees: spacing = 100 + serialization."""
        sim, _net, hosts, nics = build_pair()
        arrivals = []
        hosts[1].deliver_to(lambda event: arrivals.append(sim.now * 1e9))
        for _ in range(3):
            nics[0].host_deposit(Envelope(payload="ack", size_bytes=64,
                                          src_node=0, dst=1))
        sim.run()
        first, second, third = arrivals
        assert first == pytest.approx(
            64 / 6.25 + 500 + 100 + 64 / 7 + 150 + 100 + 64 / 6.25 + 500,
            rel=1e-12)
        assert second - first == pytest.approx(100 + 64 / 7, rel=1e-9)
        assert third - second == pytest.approx(100 + 64 / 7, rel=1e-9)
