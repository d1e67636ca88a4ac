"""Unit tests for generator processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcess:
    def test_requires_generator(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(SimulationError, match="generator"):
            sim.spawn(not_a_generator())

    def test_join_returns_value(self, sim):
        def child():
            yield sim.timeout(2)
            return "child-result"

        def parent():
            value = yield sim.spawn(child())
            return (sim.now, value)

        assert sim.run_process(parent()) == (2, "child-result")

    def test_is_alive(self, sim):
        def child():
            yield sim.timeout(5)

        process = sim.spawn(child())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_strict_mode_raises_process_exception(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("bug in process")

        sim.spawn(bad())
        with pytest.raises(RuntimeError, match="bug in process"):
            sim.run()

    def test_non_strict_mode_stores_exception(self):
        sim = Simulator(strict=False)

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("stored")

        process = sim.spawn(bad())
        sim.run()
        assert process.triggered and not process.ok

    def test_exception_thrown_into_joiner(self):
        sim = Simulator(strict=False)

        def bad():
            yield sim.timeout(1)
            raise ValueError("inner")

        def parent():
            try:
                yield sim.spawn(bad())
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run_process(parent()) == "caught inner"

    def test_yield_non_event_rejected(self, sim):
        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError, match="yield"):
            sim.run()

    def test_immediate_return(self, sim):
        def instant():
            return "now"
            yield  # pragma: no cover

        assert sim.run_process(instant()) == "now"


class TestLateJoin:
    """Yielding an event whose callbacks already ran must not recurse."""

    def test_joining_3000_finished_processes(self, sim):
        def child(i):
            return i
            yield  # pragma: no cover

        procs = [sim.spawn(child(i)) for i in range(3000)]
        sim.run()

        def parent():
            total = 0
            for proc in procs:
                total += yield proc
            return total

        assert sim.run_process(parent()) == sum(range(3000))

    def test_joining_3000_processed_timeouts(self, sim):
        timeouts = [sim.timeout(1, value=i) for i in range(3000)]
        sim.run()

        def parent():
            seen = []
            for timeout in timeouts:
                seen.append((yield timeout))
            return seen

        assert sim.run_process(parent()) == list(range(3000))


def calendar_pushes(sim):
    pushes = []
    sim.schedule_observer = lambda event, delay: pushes.append(event)
    return pushes


class TestCompletion:
    """A process nobody has joined finishes in place; a joined one goes
    through the calendar as before."""

    def test_unjoined_process_schedules_no_completion_entry(self, sim):
        pushes = calendar_pushes(sim)

        def child():
            yield sim.timeout(2)
            return "done"

        proc = sim.spawn(child())
        assert proc.is_alive and not proc.triggered
        sim.run()
        # bootstrap + the timeout; nothing for the completion
        assert len(pushes) == 2 and proc not in pushes
        assert sim.events_processed == 2
        assert proc.triggered and proc.ok and not proc.is_alive
        assert proc.value == "done"
        assert proc.callbacks is None

    def test_late_yield_resumes_immediately(self, sim):
        def child():
            yield sim.timeout(2)
            return "done"

        proc = sim.spawn(child())
        sim.run()
        pushes = calendar_pushes(sim)

        def parent():
            value = yield proc
            return (sim.now, value)

        assert sim.run_process(parent()) == (2, "done")
        assert len(pushes) == 1  # the parent's bootstrap only

    def test_late_add_callback_runs_immediately(self, sim):
        def child():
            return 7
            yield  # pragma: no cover

        proc = sim.spawn(child())
        sim.run()
        seen = []
        proc.add_callback(lambda event: seen.append(event.value))
        assert seen == [7]
        assert sim.all_of([proc]).triggered

    def test_joined_process_completes_through_the_calendar(self, sim):
        def child():
            yield sim.timeout(2)
            return "done"

        proc = sim.spawn(child())
        order = []
        proc.add_callback(lambda event: order.append(("joiner", sim.now)))
        pushes = calendar_pushes(sim)
        sim.run()
        assert proc in pushes  # the completion entry
        assert order == [("joiner", 2)]
        assert proc.value == "done" and proc.callbacks is None

    def test_unjoined_failure_is_still_recorded(self):
        sim = Simulator(strict=False)

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("stored")

        proc = sim.spawn(bad())
        sim.run()
        assert proc.triggered and not proc.ok and not proc.is_alive
