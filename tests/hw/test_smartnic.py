"""Tests for the SmartNIC: FIFOs, drains, broadcast, host messaging."""

import pytest

from repro.errors import ConfigError
from repro.hw.params import DEFAULT_MACHINE, ns
from repro.hw.smartnic import SmartNic
from repro.sim import Network, Simulator
from repro.sim.network import Mailbox


def build(params=DEFAULT_MACHINE, broadcast=True, batching=True, n=3):
    sim = Simulator()
    net = Network(sim)
    hosts = [Mailbox(sim, f"host{i}.inbox") for i in range(n)]
    snics = [SmartNic(sim, i, params, net, hosts[i], batching=batching,
                      broadcast=broadcast) for i in range(n)]
    return sim, net, hosts, snics


class TestFifos:
    def test_vfifo_enqueue_pays_write_latency(self):
        sim, _net, _hosts, snics = build()
        snic = snics[0]
        entry = snic.make_entry("k", (1, 0), "v", 1024)

        def proc():
            yield from snic.vfifo_enqueue(entry)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(ns(465))
        assert entry.written.triggered

    def test_dfifo_enqueue_pays_write_latency(self):
        sim, _net, _hosts, snics = build()
        snic = snics[0]
        entry = snic.make_entry("k", (1, 0), "v", 1024)

        def proc():
            yield from snic.dfifo_enqueue(entry)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(ns(1295))

    def test_drain_applies_and_fires_drained(self):
        sim, _net, _hosts, snics = build()
        snic = snics[0]
        applied = []

        def vapply(entry):
            yield sim.timeout(ns(100))
            applied.append(entry.key)
            entry.drained.succeed()

        def dapply(entry):
            entry.drained.succeed()
            return
            yield  # pragma: no cover

        snic.start_drains(vapply, dapply)
        entry = snic.make_entry("key1", (1, 0), "v", 1024)

        def proc():
            yield from snic.vfifo_enqueue(entry)
            yield entry.drained

        sim.run_process(proc())
        assert applied == ["key1"]

    def test_double_start_drains_rejected(self):
        _sim, _net, _hosts, snics = build()

        def noop(entry):
            entry.drained.succeed()
            return
            yield  # pragma: no cover

        snics[0].start_drains(noop, noop)
        with pytest.raises(ConfigError):
            snics[0].start_drains(noop, noop)

    def test_capacity_blocks_enqueue_until_drain(self):
        params = DEFAULT_MACHINE.with_fifo_entries(1)
        sim, _net, _hosts, snics = build(params=params)
        snic = snics[0]
        release = sim.event()

        def slow_apply(entry):
            yield release  # hold the drain until told
            entry.drained.succeed()

        def dapply(entry):
            entry.drained.succeed()
            return
            yield  # pragma: no cover

        snic.start_drains(slow_apply, dapply)
        log = []

        def producer():
            for i in range(6):
                entry = snic.make_entry(f"k{i}", (i, 0), "v", 1024)
                yield from snic.vfifo_enqueue(entry)
                log.append((i, sim.now))

        def releaser():
            yield sim.timeout(1e-3)
            release.succeed()

        sim.spawn(producer())
        sim.spawn(releaser())
        sim.run()
        # Four drain workers plus one capacity-1 slot absorb five entries;
        # the sixth enqueue must wait for the stalled drains to release.
        assert log[4][1] < 1e-4
        assert log[5][1] >= 1e-3


class TestMessaging:
    def test_send_multi_with_broadcast_is_one_wire_message(self):
        sim, _net, _hosts, snics = build(broadcast=True)
        got = []

        def receiver(i):
            packet = yield snics[i].net_inbox.get()
            got.append((i, sim.now))

        for i in (1, 2):
            sim.spawn(receiver(i))
        snics[0].send_multi([1, 2], "inv", 1024)
        sim.run()
        assert len(got) == 2
        assert abs(got[0][1] - got[1][1]) < 1e-12
        assert snics[0].messages_sent == 1

    def test_send_multi_without_broadcast_serializes(self):
        sim, _net, _hosts, snics = build(broadcast=False)
        got = []

        def receiver(i):
            packet = yield snics[i].net_inbox.get()
            got.append(sim.now)

        for i in (1, 2):
            sim.spawn(receiver(i))
        snics[0].send_multi([1, 2], "inv", 1024)
        sim.run()
        assert len(got) == 2
        assert abs(got[1] - got[0]) > 3e-7
        assert snics[0].messages_sent == 2

    def test_send_multi_to_no_destinations_sends_nothing(self):
        """Every peer excluded: an empty broadcast is consumed without a
        send, a count or the broadcast set-up, so the next message leaves
        exactly when it would on a NIC without the broadcast module."""
        arrivals = {}
        for broadcast in (False, True):
            sim, net, _hosts, snics = build(broadcast=broadcast)
            got = []

            def receiver():
                yield snics[1].net_inbox.get()
                got.append(sim.now)

            sim.spawn(receiver())
            snics[0].send_multi([], "val", 64)
            snics[0].send_message(1, "ack", 64)
            sim.run()
            assert snics[0].messages_sent == 1
            assert net.port(snics[0].endpoint).packets_sent == 1
            arrivals[broadcast] = got
        assert arrivals[True] == arrivals[False] and len(arrivals[True]) == 1

    def test_send_to_host_lands_in_host_inbox(self):
        sim, _net, hosts, snics = build()
        got = []

        def receiver():
            packet = yield hosts[0].get()
            got.append(packet.payload)

        sim.spawn(receiver())
        snics[0].send_to_host("batched-ack", 64)
        sim.run()
        assert got == ["batched-ack"]

    def test_host_deposit_reaches_snic(self):
        from repro.hw.nic import Envelope
        sim, _net, _hosts, snics = build()
        got = []

        def receiver():
            packet = yield snics[0].from_host.get()
            got.append(packet.payload.payload)

        sim.spawn(receiver())
        snics[0].host_deposit(Envelope(payload="inv", size_bytes=1024,
                                       src_node=0, dests=[1, 2]))
        sim.run()
        assert got == ["inv"]

    def test_coherent_access_cost(self):
        sim, _net, _hosts, snics = build()

        def proc():
            yield snics[0].coherent_access()
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(ns(60))

    def test_compute_uses_snic_cores(self):
        sim, _net, _hosts, snics = build()
        snic = snics[0]
        done = []

        def job(tag):
            yield from snic.compute(1e-6)
            done.append((tag, sim.now))

        for tag in range(9):  # 8 cores -> 9th job waits
            sim.spawn(job(tag))
        sim.run()
        assert done[-1][1] == pytest.approx(2e-6)
