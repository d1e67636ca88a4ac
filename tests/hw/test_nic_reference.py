"""Differential oracle for the callback-driven :class:`BaselineNic`.

``ReferenceNic`` is the generator-process NIC that ``hw/nic.py`` used to
be — two ``Mailbox.get`` → ``sleep`` → ``Port.send`` loops — kept here,
test-only, as the executable definition of the device's timing.  The
same deposit / halt / resume schedule is driven through both; every host
inbox must see the same ``(arrival time, source, payload)`` sequence with
``==`` on the floats, and every counter must match.  Nothing here touches
a hash table, so the comparison is independent of ``PYTHONHASHSEED``.
"""

from hypothesis import given, settings, strategies as st

from repro.hw.nic import BaselineNic, Envelope, nic_endpoint
from repro.hw.params import DEFAULT_MACHINE, ns
from repro.sim import Network, Simulator
from repro.sim.network import Mailbox, Packet

NODES = 4


class ReferenceNic(BaselineNic):
    """The NIC as two simulated processes (the pre-callback form)."""

    def __init__(self, sim, *args, **kwargs):
        super().__init__(sim, *args, **kwargs)
        for box in (self.from_host, self.net_inbox):
            box.deliver_to(box._enqueue)  # plain queueing again
        sim.spawn(self._tx_loop())
        sim.spawn(self._rx_loop())

    def _tx_loop(self):
        while True:
            packet = yield self.from_host.get()
            if self.halted:
                continue  # crashed: consume and drop
            envelope = packet.payload
            size = envelope.size_bytes
            if not envelope.is_batched:
                copies = [envelope]
            elif self.broadcast and envelope.dests:
                yield self.sim.timeout(self.params.snic.broadcast_setup +
                                       self._send_cost(size))
                self.messages_sent += 1
                yield self.network.broadcast(
                    self.endpoint, [nic_endpoint(d) for d in envelope.dests],
                    envelope, size)
                continue
            else:
                yield self.sim.sleep(self.params.snic.batch_unpack_per_dest)
                copies = [Envelope(payload=envelope.payload, size_bytes=size,
                                   src_node=envelope.src_node, dst=dst)
                          for dst in envelope.dests]
            for copy in copies:
                yield self.sim.sleep(self._send_cost(size))
                self.messages_sent += 1
                yield self.network.send(self.endpoint, nic_endpoint(copy.dst),
                                        copy, size)

    def _rx_loop(self):
        while True:
            packet = yield self.net_inbox.get()
            if self.halted:
                continue  # crashed: consume and drop
            self.messages_received += 1
            yield self.sim.sleep(self.params.nic.recv_cost)
            down = Packet(payload=packet.payload, size_bytes=packet.size_bytes,
                          src=self.endpoint, dst=self._host_name, kind="pcie")
            self._pcie_down.send(down, self._host_inbox)


# -- schedules ---------------------------------------------------------------

#: Gaps between driver actions: zero (bursts), inside one service step,
#: one unpack step (150 ns: puts two NICs in lock-step, one mid-unpack and
#: one dequeuing), inside the egress serialization that follows a send
#: (250 ns: the next deposit finds tx idle but the port busy), around one
#: message time, and long enough for every stage to go idle.
GAPS = st.sampled_from([0.0, ns(40), ns(130), ns(150), ns(250), ns(350),
                        ns(900), ns(6000)])
PEERS = st.lists(st.integers(0, NODES - 1), min_size=1, max_size=3,
                 unique=True)
DEPOSIT = st.tuples(st.just("deposit"), GAPS, st.integers(0, NODES - 1),
                    st.sampled_from([64, 1024, 4096]),
                    st.one_of(st.integers(0, NODES - 1), PEERS))
CRASH = st.tuples(st.sampled_from(["halt", "resume"]), GAPS,
                  st.integers(0, NODES - 1))
SCHEDULES = st.lists(st.one_of(DEPOSIT, DEPOSIT, DEPOSIT, CRASH),
                     min_size=1, max_size=40)

#: halt()/resume() land this far off the action grid so that they never
#: tie with a device event: at an exact tie "was the flag set before the
#: dequeue?" depends on calendar insertion order, which the two forms do
#: not share (and no experiment relies on).
OFF_GRID = ns(0.37137)


def drive(nic_cls, schedule, broadcast):
    sim = Simulator()
    net = Network(sim)
    hosts = [Mailbox(sim, f"host{i}.inbox") for i in range(NODES)]
    nics = [nic_cls(sim, i, DEFAULT_MACHINE, net, hosts[i],
                    broadcast=broadcast) for i in range(NODES)]
    arrivals = [[] for _ in range(NODES)]
    for i, host in enumerate(hosts):
        host.deliver_to(lambda event, log=arrivals[i]: log.append(
            (sim.now, event.value.payload.src_node,
             event.value.payload.payload)))
    dropped = []

    def driver():
        for serial, (action, gap, node, *rest) in enumerate(schedule):
            yield sim.timeout(gap)
            if action == "deposit":
                size, to = rest
                where = {"dests": to} if isinstance(to, list) else {"dst": to}
                nics[node].host_deposit(Envelope(
                    payload=serial, size_bytes=size, src_node=node, **where))
                continue
            yield sim.timeout(OFF_GRID)
            if action == "halt":
                dropped.append(nics[node].halt())
            else:
                nics[node].resume()

    sim.spawn(driver())
    sim.run()
    counters = [(nic.messages_sent, nic.messages_received,
                 len(nic.from_host), len(nic.net_inbox),
                 [(port.packets_sent, port.bytes_sent) for port in
                  (net.port(nic.endpoint), nic._pcie_up, nic._pcie_down)])
                for nic in nics]
    return arrivals, counters, dropped, sim.now


@settings(max_examples=150, deadline=None, derandomize=True)
@given(schedule=SCHEDULES, broadcast=st.booleans())
def test_callback_nic_matches_the_process_reference(schedule, broadcast):
    assert (drive(BaselineNic, schedule, broadcast) ==
            drive(ReferenceNic, schedule, broadcast))


def test_the_comparison_is_not_vacuous():
    """A burst with a crash in it: messages arrive, some are dropped
    while queued, and the halted NIC forwards again after resume()."""
    schedule = ([("deposit", 0.0, 0, 1024, 1)] * 6 +
                [("deposit", 0.0, 0, 1024, [1, 2, 3])] +
                [("halt", ns(900), 0), ("deposit", ns(130), 0, 64, 2),
                 ("resume", ns(6000), 0), ("deposit", ns(40), 0, 64, 2)])
    for broadcast in (False, True):
        arrivals, _counters, dropped, _end = result = drive(
            BaselineNic, schedule, broadcast)
        assert result == drive(ReferenceNic, schedule, broadcast)
        assert dropped[0] > 0
        assert 0 < len(arrivals[1]) < 7
        assert arrivals[2][-1][2] == len(schedule) - 1


def test_a_late_wake_up_keeps_its_place_among_ties():
    """Two NICs free their egress port at the same float and then send to
    the same destination.  NIC 1's follow-up message arrived *after* its
    first one was sent (wake-up armed late), NIC 0's was already queued
    (wake-up armed at the send).  Who reaches node 2 first is decided by
    calendar order at that instant — which must still be the order of
    the two sends, not of the two armings."""
    schedule = [("deposit", 0.0, 1, 1024, 3), ("deposit", 0.0, 0, 1024, 3),
                ("deposit", 0.0, 0, 1024, 2),
                ("deposit", ns(250), 1, 1024, 2)]
    arrivals, *_ = result = drive(BaselineNic, schedule, broadcast=False)
    assert result == drive(ReferenceNic, schedule, broadcast=False)
    assert [src for _time, src, _payload in arrivals[2]] == [1, 0]


def test_an_unpacked_copy_sorts_before_a_dequeue_at_the_same_instant():
    """NIC 1 is between the two copies of a dest-mapped message at the
    very instant NIC 0 dequeues its second message, and both then send to
    node 2.  As a process, the copy's send cost was scheduled straight
    from the port-free wake-up while the dequeue took one more calendar
    hop, so the copy won every such tie; the callback form must too."""
    schedule = [("deposit", 0.0, 1, 64, [3, 2]),
                ("deposit", ns(150), 0, 64, 3), ("deposit", 0.0, 0, 64, 2)]
    arrivals, *_ = result = drive(BaselineNic, schedule, broadcast=False)
    assert result == drive(ReferenceNic, schedule, broadcast=False)
    assert [src for _time, src, _payload in arrivals[2]] == [1, 0]
