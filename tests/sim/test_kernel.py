"""Unit tests for the simulation kernel."""

import pytest

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
