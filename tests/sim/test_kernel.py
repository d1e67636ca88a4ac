"""Unit tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_monotonic_across_processes(self, sim):
        stamps = []

        def proc(delay):
            yield sim.timeout(delay)
            stamps.append(sim.now)

        for delay in (3, 1, 2):
            sim.spawn(proc(delay))
        sim.run()
        assert stamps == [1, 2, 3]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            sim.spawn(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_advances_clock_exactly(self, sim):
        def proc():
            yield sim.timeout(10)

        sim.spawn(proc())
        sim.run(until=4)
        assert sim.now == 4
        sim.run(until=20)
        assert sim.now == 20

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(SimulationError):
            sim.run(until=1)


class TestRunProcess:
    def test_returns_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "result"

        assert sim.run_process(proc()) == "result"

    def test_deadlock_detected(self, sim):
        def proc():
            yield sim.event()  # nobody ever fires this

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(proc())

    def test_stops_at_completion_with_background_noise(self, sim):
        # An infinite heartbeat must not keep run_process spinning.
        def heartbeat():
            while True:
                yield sim.timeout(1)

        def proc():
            yield sim.timeout(5)
            return sim.now

        sim.spawn(heartbeat())
        assert sim.run_process(proc()) == 5
        assert sim.now == 5

    def test_determinism_two_identical_sims(self):
        def experiment():
            sim = Simulator()
            log = []

            def worker(tag, delay):
                yield sim.timeout(delay)
                log.append((tag, sim.now))
                yield sim.timeout(delay * 2)
                log.append((tag, sim.now))

            for i in range(5):
                sim.spawn(worker(i, 0.1 * (i + 1)))
            sim.run()
            return log

        assert experiment() == experiment()


class TestStop:
    def test_stop_halts_simulation(self):
        from repro.errors import StopSimulation
        sim = Simulator()
        log = []

        def stopper():
            yield sim.timeout(5)
            log.append("stopping")
            sim.stop()

        def background():
            for _ in range(100):
                yield sim.timeout(1)
                log.append(sim.now)

        sim.spawn(background())
        sim.spawn(stopper())
        sim.run()
        assert log[-1] == "stopping"
        assert sim.now == 5


class TestCallAt:
    def test_runs_callback_at_the_absolute_time_with_the_value(self, sim):
        seen = []
        sim.call_at(3.5, lambda event: seen.append((sim.now, event.value)),
                    "payload")
        sim.run()
        assert seen == [(3.5, "payload")]
        assert sim.events_processed == 1

    def test_heap_key_is_the_float_given(self, sim):
        """``when`` is not re-derived as now + (when - now)."""
        def later():
            yield sim.timeout(0.1)
            sim.call_at(0.1 + 0.2, lambda event: seen.append(sim.now))

        seen = []
        sim.spawn(later())
        sim.run()
        assert seen == [0.1 + 0.2]

    def test_schedule_observer_sees_it(self, sim):
        pushes = []
        sim.schedule_observer = lambda event, delay: pushes.append(delay)
        sim.call_at(2.0, lambda event: None)
        assert pushes == [2.0]

    def test_past_rejected(self, sim):
        sim.run(until=5)
        with pytest.raises(SimulationError, match="past"):
            sim.call_at(4.0, lambda event: None)

    def test_ties_with_timeouts_break_by_push_order(self, sim):
        order = []
        sim.timeout(1).add_callback(lambda event: order.append("a"))
        sim.call_at(1, lambda event: order.append("b"))
        sim.timeout(1).add_callback(lambda event: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ticket_keeps_the_place_it_was_taken_at(self, sim):
        order = []
        sim.call_at(1, lambda event: order.append("before"))
        ticket = sim.ticket()
        sim.call_at(1, lambda event: order.append("after"))
        sim.call_at(1, lambda event: order.append("ticketed"), ticket=ticket)
        sim.run()
        assert order == ["before", "ticketed", "after"]

    def test_a_ticket_never_handed_out_is_rejected(self, sim):
        """Such a ticket could collide with a later push's sequence
        number, and the calendar would then compare two events."""
        ticket = sim.ticket()
        with pytest.raises(SimulationError, match="never handed out"):
            sim.call_at(1, lambda event: None, ticket=ticket + 1)
        sim.call_at(1, lambda event: None, ticket=ticket)
        sim.run()
        assert sim.events_processed == 1


def waits_on(event):
    return (yield event)


class TestSameInstantTier:
    def test_zero_delay_entries_skip_the_heap(self, sim):
        fired = []
        sim.event().succeed()
        sim.spawn(waits_on(sim.event()))
        sim.timeout(0).add_callback(lambda event: fired.append("timeout"))
        sim.call_at(0.0, lambda event: fired.append("call_at"))
        assert sim._queue == [] and len(sim._ready) == 4
        sim.run()
        assert fired == ["timeout", "call_at"]
        assert sim.events_processed == 4

    def test_an_earlier_heap_entry_at_now_goes_first(self, sim):
        """A delay that rounds away lands in the heap at ``now``; it
        still fires before same-instant entries pushed after it."""
        order = []

        def first(event):
            sim.timeout(1e-300).add_callback(lambda e: order.append("tiny"))
            sim.event().succeed().add_callback(lambda e: order.append("now"))

        sim.call_at(1.0, first)
        sim.run()
        assert order == ["tiny", "now"]

    def test_deadlock_check_drains_same_instant_entries(self, sim):
        event = sim.event()
        event.succeed("ready")
        assert sim.run_process(waits_on(event)) == "ready"
        sim.event().succeed()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(waits_on(sim.event()))
        assert sim.events_processed == 4


# -- pop order: the two tiers fire exactly in one-heap (when, seq) order -----

#: Later delays: ties between entries pushed at different instants.
LATER = (0.5, 1.0)
#: Delays a sleep may take: zero (the FIFO tier), one that rounds away once
#: ``now`` is large (the heap at ``now``), or a later tie.
DELAYS = (0.0, 1e-300) + LATER

ACTIONS = ("succeed", "sleep", "spawn", "call_now", "call_later", "ticket",
           "use_ticket", "stop")


class PushLog:
    """Drives a simulator through drawn actions and logs every push as
    ``(when, seq, tag)``, counting sequence numbers itself: one per push
    and one per ticket, as the kernel does."""

    def __init__(self, data, can_stop, budget=40):
        self.sim = Simulator()
        self.data = data
        self.can_stop = can_stop
        self.budget = budget
        self.seq = 0
        self.pushed = []
        self.fired = []
        self.tickets = []  # (ticket, entry it was taken in)
        self.current = None  # tag of the entry whose callbacks run

    def log(self, when, seq=None):
        if seq is None:
            self.seq += 1
            seq = self.seq
        tag = len(self.pushed)
        self.pushed.append((when, seq, tag))
        return tag

    def on_fire(self, tag):
        def callback(_event):
            self.fired.append(tag)
            self.current = tag
            self.act()
        return callback

    def act(self):
        sim, draw = self.sim, self.data.draw
        for _ in range(draw(st.integers(0, 3))):
            if self.budget <= 0:
                return
            self.budget -= 1
            action = draw(st.sampled_from(ACTIONS))
            now = sim.now
            if action == "succeed":
                event = sim.event().succeed()
                event.add_callback(self.on_fire(self.log(now)))
            elif action == "sleep":
                delay = draw(st.sampled_from(DELAYS))
                timeout = sim.sleep(delay)
                timeout.add_callback(self.on_fire(self.log(now + delay)))
            elif action == "spawn":
                tag = self.log(now)
                sim.spawn(self.process(tag))
            elif action in ("call_now", "call_later"):
                when = now if action == "call_now" else (
                    now + draw(st.sampled_from(LATER)))
                sim.call_at(when, self.on_fire(len(self.pushed)))
                self.log(when)
            elif action == "ticket":
                self.tickets.append((sim.ticket(), self.current))
                self.seq += 1
            elif action == "use_ticket" and self.tickets:
                ticket, taken_in = self.tickets.pop(
                    draw(st.integers(0, len(self.tickets) - 1)))
                # A ticket may key ``now`` only from the entry it was
                # taken in: any earlier ticket would sort before entries
                # that have already fired.
                same_entry = taken_in is not None and taken_in == self.current
                when = now + draw(st.sampled_from(
                    ((0.0,) if same_entry else ()) + LATER))
                sim.call_at(when, self.on_fire(len(self.pushed)),
                            ticket=ticket)
                self.log(when, seq=ticket)
            elif (action == "stop" and self.can_stop
                  and self.current is not None):
                sim.stop()

    def process(self, tag):
        self.fired.append(tag)
        self.current = tag
        self.act()
        return
        yield  # pragma: no cover - makes this a generator

    def expected(self):
        return [tag for _when, _seq, tag in sorted(self.pushed)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_run_fires_in_heap_order(data):
    """``run`` with ``until`` cuts, and ``stop`` then a second ``run``."""
    log = PushLog(data, can_stop=True)
    log.act()
    sim = log.sim
    while sim._queue or sim._ready:
        log.current = None
        if data.draw(st.booleans()):
            sim.run()
        else:
            sim.run(until=sim.now + data.draw(st.sampled_from(
                (0.0, 0.25, 0.5, 1.0))))
    assert log.fired == log.expected()
    assert log.seq == sim._seq


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_run_process_fires_in_heap_order_then_detects_deadlock(data):
    """``run_process`` steps the same order and reports the deadlock only
    once both tiers are empty."""
    log = PushLog(data, can_stop=False)
    log.act()
    sim = log.sim
    log.seq += 1  # run_process first pushes the blocked process's start
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(waits_on(sim.event()))
    assert log.fired == log.expected()
    assert log.seq == sim._seq
