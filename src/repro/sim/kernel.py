"""The discrete-event simulation kernel.

:class:`Simulator` owns the event calendar (a FIFO of entries due now
beside a binary heap, keyed on simulated time and push order) and drives
processes.  Time is a ``float`` in **seconds**; hardware parameters
elsewhere in the library are expressed in nanoseconds and converted at the
edges (see :mod:`repro.hw.params`).

The kernel is deliberately small and single-threaded: determinism is a design
requirement (DESIGN.md §5.4).  Ties in the calendar are broken by insertion
order, so two runs of the same experiment produce identical event orders.

Performance notes (the kernel bounds every experiment's wall-clock):

* :meth:`Simulator.run` inlines the pop/advance/callback step with the heap
  and queue bound to locals: that loop is the cost of one calendar entry
  (the ``sim.kernel`` row of the perf ledger, ``ledger/README.md``).
* Same-instant work costs no heap operation: zero-delay pushes go to a
  FIFO, all keyed ``now``.  :meth:`run` takes its head unless the heap top
  is at ``now`` too with a smaller ``seq``, so entries still fire in exact
  one-heap ``(time, seq)`` order (docs/simulator.md, "Kernel").
* :meth:`Simulator.sleep` hands out pooled, recycled :class:`Timeout`
  objects for the dominant fixed-delay pattern.  Pooling changes no
  calendar entry — only allocation traffic — and can be disabled by
  setting :attr:`timeout_pooling` to ``False``
  (``tests/sim/test_calendar_identity.py`` asserts the calendar is
  identical either way).
* What bounds an experiment is calendar entries per client op, so the
  cheapest entry is the one never pushed: :meth:`Simulator.call_at` runs a
  fixed-function device stage (the baseline NIC) on one entry per
  completion, an unjoined process finishes in place, ``Port.post``
  schedules no serialization-done timeout, and a broadcast's same-instant
  deliveries share one entry (docs/simulator.md, "Processes vs
  callbacks"; ``tests/sim/test_event_budget.py`` holds the count).
* All scheduling funnels through :meth:`_schedule_now`,
  :meth:`_schedule_event` and :meth:`call_at`.  Tests that need to record
  the calendar assign :attr:`Simulator.schedule_observer` — a
  ``(event, delay)`` callable invoked on every push — instead of wrapping
  them (the class uses ``__slots__``, so per-instance method
  monkeypatching is not possible).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout, _PooledTimeout
from repro.sim.process import Process, ProcessGenerator

#: Upper bound on the timeout free pool; past this, fired pooled timeouts
#: are simply dropped for the garbage collector.
_POOL_CAP = 1024

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    strict:
        If true (the default), an uncaught exception inside a process
        aborts the whole simulation immediately instead of being stored on
        the process event — surfacing protocol bugs loudly.
    """

    __slots__ = ("_now", "_queue", "_ready", "_seq", "strict",
                 "events_processed", "_timeout_pool", "timeout_pooling",
                 "_next_write_id", "_next_persist_id", "schedule_observer")

    def __init__(self, strict: bool = True) -> None:
        self._now: float = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        #: Entries keyed ``(now, seq)``, in push order (see :meth:`run`).
        self._ready: Deque[Tuple[int, Event]] = deque()
        self._seq: int = 0
        self.strict = strict
        #: Calendar entries processed so far (one per fired event); the
        #: numerator of the ledger's ``sim.events_per_op``.
        self.events_processed: int = 0
        #: Recycled :class:`_PooledTimeout` instances (see :meth:`sleep`).
        self._timeout_pool: List[_PooledTimeout] = []
        #: Disable to make :meth:`sleep` allocate like :meth:`timeout`
        #: (used by tests proving pooling is calendar-transparent).
        self.timeout_pooling: bool = True
        # Transaction-id mints.  Per-simulator, not module-global: two
        # clusters in one process (or one forked into workers) must mint
        # identical id sequences for identical runs — the figure-sweep
        # pool's serial ≡ pooled contract depends on it.
        self._next_write_id: int = 1
        self._next_persist_id: int = 1
        #: Optional ``(event, delay)`` callable invoked on every calendar
        #: push — the calendar-identity tests use it to record the full
        #: event schedule without perturbing it.
        self.schedule_observer: Optional[Any] = None

    def next_write_id(self) -> int:
        """A unique id for each client-write transaction of *this*
        simulation (debug/bookkeeping; also keys obs spans)."""
        value = self._next_write_id
        self._next_write_id = value + 1
        return value

    def next_persist_id(self) -> int:
        """A unique id for each [PERSIST]sc transaction of *this*
        simulation."""
        value = self._next_persist_id
        self._next_persist_id = value + 1
        return value

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ---------------------------------------------------

    def event(self, label: str = "") -> Event:
        """Create a fresh untriggered event bound to this simulator."""
        return Event(self, label=label)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires *delay* seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :meth:`timeout` for the hot fixed-delay pattern.

        The returned object is recycled after its callbacks run, so the
        caller must consume it immediately (``yield sim.sleep(t)``) and
        must NOT retain it, re-wait on it, or compose it into
        :class:`~repro.sim.events.AllOf` / ``AnyOf``.  Identical calendar
        behaviour to :meth:`timeout`; only allocation traffic differs.
        """
        if not self.timeout_pooling:
            return Timeout(self, delay, value)
        pool = self._timeout_pool
        if not pool:
            return _PooledTimeout(self, delay, value)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        timeout = pool.pop()
        timeout._value = value
        timeout.delay = delay
        self._schedule_event(timeout, delay)
        return timeout

    def all_of(self, events) -> AllOf:
        """An event that fires once every event in *events* has fired."""
        return AllOf(self, list(events))

    def any_of(self, events) -> AnyOf:
        """An event that fires when the first event in *events* fires."""
        return AnyOf(self, list(events))

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running *generator* at the current time."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, callback: Callable[[Event], None],
                value: Any = None, ticket: int = 0) -> None:
        """Run ``callback(event)`` at simulated time *when* with *value*
        as the event's value: one calendar entry, no process.

        *when* is absolute and becomes the calendar key unchanged, so the
        caller decides how the float is formed — ``now + cost`` lands
        exactly where ``yield sim.sleep(cost)`` would have resumed.  A
        *ticket* (see :meth:`ticket`) places the entry among same-time
        entries as if it had been pushed when the ticket was taken.
        """
        now = self._now
        if when < now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})")
        event = Event(self)
        event._value = value
        event.callbacks.append(callback)
        if not ticket:
            if when == now:
                return self._schedule_now(event)
            ticket = self._seq = self._seq + 1
        elif ticket > self._seq:
            raise SimulationError(f"call_at ticket {ticket} was never "
                                  f"handed out (last is {self._seq})")
        if self.schedule_observer is not None:
            self.schedule_observer(event, when - now)
        _heappush(self._queue, (when, ticket, event))

    def ticket(self) -> int:
        """Reserve the next tie-break position without pushing anything:
        for a wake-up that is usually not needed.  Passed to
        :meth:`call_at` (once) if it turns out to be wanted, same-time
        ties resolve as if it had been scheduled here."""
        self._seq += 1
        return self._seq

    # -- kernel plumbing ------------------------------------------------------

    def _schedule_now(self, event: Event) -> None:
        """Put *event* on the calendar to run its callbacks at the current
        instant: the FIFO tier, no heap operation."""
        if self.schedule_observer is not None:
            self.schedule_observer(event, 0.0)
        seq = self._seq + 1
        self._seq = seq
        self._ready.append((seq, event))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Put *event* on the calendar to run its callbacks after *delay*."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if not delay:
            return self._schedule_now(event)
        if self.schedule_observer is not None:
            self.schedule_observer(event, delay)
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (self._now + delay, seq, event))

    def _step(self) -> None:
        """Process the next calendar entry (the rule :meth:`run` inlines)."""
        queue, ready = self._queue, self._ready
        if ready:
            if (queue and queue[0][0] == self._now
                    and queue[0][1] < ready[0][0]):
                event = _heappop(queue)[2]
            else:
                event = ready.popleft()[1]
        else:
            self._now, _seq, event = _heappop(queue)
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        pool = self._timeout_pool
        if event._pooled and len(pool) < _POOL_CAP:
            event.callbacks = []
            event._value = None  # drop the payload reference
            pool.append(event)

    # -- running --------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or simulated time reaches *until*.

        If *until* is given, time is advanced exactly to *until* when the
        simulation is cut short, so back-to-back ``run`` calls see a
        monotonic clock.
        """
        now = self._now
        if until is not None and until < now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={now})")
        limit = _INF if until is None else until
        # The hot loop: one iteration per calendar entry.  Locals bound
        # outside the loop; the callback step is inlined (_step is kept
        # for the cold run_until path).  The FIFO's entries are all keyed
        # ``now``: its head goes first unless the heap top is at ``now``
        # too and was pushed earlier.
        queue = self._queue
        ready = self._ready
        pop = _heappop
        popleft = ready.popleft
        pool = self._timeout_pool
        processed = 0
        try:
            while True:
                if ready:
                    if (queue and queue[0][0] == now
                            and queue[0][1] < ready[0][0]):
                        event = pop(queue)[2]
                    else:
                        event = popleft()[1]
                elif queue:
                    now, seq, event = pop(queue)
                    if now > limit:  # cut: put it back untouched
                        _heappush(queue, (now, seq, event))
                        break
                    self._now = now
                else:
                    break
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._pooled and len(pool) < _POOL_CAP:
                    event.callbacks = []
                    event._value = None
                    pool.append(event)
        except StopSimulation:
            return
        finally:
            self.events_processed += processed
        if until is not None:
            self._now = until

    def run_until(self, event: Event) -> None:
        """Run until *event* triggers (or the calendar drains)."""
        while (self._queue or self._ready) and not event.triggered:
            self._step()

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Spawn *generator*, run until it completes, and return its result.

        Convenience wrapper used heavily in tests and examples: it stops as
        soon as the process finishes (so ever-running background processes
        such as heartbeats don't keep it spinning), raises the process's
        exception if the process failed, and raises
        :class:`SimulationError` if the calendar drained before the process
        finished (i.e., the process deadlocked).
        """
        process = self.spawn(generator, name=name)
        self.run_until(process)
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} did not finish: simulation "
                "deadlocked with no scheduled events")
        return process.value

    def stop(self) -> None:
        """Stop the simulation from inside a process callback."""
        raise StopSimulation()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self._now:.3e} "
                f"pending={len(self._queue) + len(self._ready)}>")
