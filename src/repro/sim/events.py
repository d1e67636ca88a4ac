"""Core event types for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it.  Events carry a value (delivered to every waiter) or an
exception (thrown into every waiter).  Composite events (:class:`AllOf`,
:class:`AnyOf`) let a process wait for conjunctions / disjunctions, which is
how the protocol code expresses "spin until all ACKs received" or "wait for
either the VAL or a failure-detector timeout".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.errors import EventAlreadyTriggered, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Simulator

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_UNSET = object()


class Event:
    """A one-shot occurrence in simulated time.

    Processes wait on an event by yielding it; the kernel resumes them with
    the event's value once it triggers.  An event triggers exactly once,
    either successfully (:meth:`succeed`) or with an error (:meth:`fail`).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_label")

    #: Overridden by :class:`_PooledTimeout`; checked by the kernel's run
    #: loop to decide whether a processed event returns to the free pool.
    _pooled = False

    def __init__(self, sim: "Simulator", label: str = "") -> None:
        self.sim = sim
        #: Callbacks invoked (with this event) when the event triggers.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._label = label

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._value is not _UNSET or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (not failed)."""
        return self._value is not _UNSET

    @property
    def value(self) -> Any:
        """The event's value; raises if the event has not triggered yet."""
        if self._value is _UNSET:
            if self._exc is not None:
                raise self._exc
            raise SimulationError(f"event {self!r} has not triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._value is not _UNSET or self._exc is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._value = value
        self.sim._schedule_now(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception thrown into waiters."""
        if self._value is not _UNSET or self._exc is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exc = exc
        self.sim._schedule_now(self)
        return self

    # -- kernel interface ---------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else ("failed" if self.triggered else "pending")
        name = self._label or type(self).__name__
        return f"<{name} {state} at t={self.sim.now:.3e}>"


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay.

    Timeouts are born triggered (their value is fixed at construction);
    the calendar entry only determines *when* waiters resume.  The
    constructor assigns the base fields directly instead of delegating to
    ``Event.__init__`` — timeouts dominate the calendar, and the label is
    rendered lazily in :meth:`__repr__`.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._label = ""
        self.delay = delay
        sim._schedule_event(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout({self.delay:g}) at t={self.sim.now:.3e}>"


class _PooledTimeout(Timeout):
    """A kernel-recycled timeout (see :meth:`Simulator.sleep`).

    After its callbacks run, the kernel clears it and returns it to the
    simulator's free pool, so the dominant fixed-delay pattern ("occupy a
    core for t", "serialize a packet for t") stops allocating.  Pooled
    timeouts must be yielded immediately and never retained or composed
    into :class:`AllOf` / :class:`AnyOf` — the object's identity is only
    valid until it fires.
    """

    __slots__ = ()

    _pooled = True


class _Composite(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim, label=type(self).__name__)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("composite event spans two simulators")
        self._pending = len(self.events)
        if not self.events:
            self.succeed(self._result())
        else:
            for event in self.events:
                event.add_callback(self._on_child)

    def _result(self) -> Any:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Composite):
    """Triggers when *all* child events have triggered.

    The value is a list of the children's values in construction order.  If
    any child fails, the composite fails with that child's exception.
    """

    __slots__ = ()

    def _result(self) -> Any:
        return [event.value for event in self.events]

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exc)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._result())


class AnyOf(_Composite):
    """Triggers when the *first* child event triggers.

    The value is the ``(event, value)`` pair of the first child to fire,
    so waiters can tell which of several awaited occurrences happened.
    """

    __slots__ = ()

    def _result(self) -> Any:  # pragma: no cover - empty AnyOf is an error
        raise SimulationError("AnyOf requires at least one event")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event._exc)  # type: ignore[arg-type]
