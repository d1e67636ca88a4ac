"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the event triggers; the
kernel then resumes the generator with the event's value (or throws the
event's exception into it).  A :class:`Process` is itself an event that
triggers when the generator returns, so processes can be joined with
``yield other_process``.  A process that nobody has joined by the time it
returns finishes *in place* — value set, no completion entry on the
calendar — and anyone who joins it later resumes immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.sim.events import Event, _UNSET

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated process wrapping a generator.

    Triggers (as an event) with the generator's return value when the
    generator finishes, or fails with the generator's uncaught exception.
    """

    __slots__ = ("generator", "name", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?")
        # Base fields assigned directly (the engines spawn a process per
        # message, so construction is hot — same treatment as Timeout).
        self.sim = sim
        self.callbacks = []
        self._value = _UNSET
        self._exc = None
        self._label = name or getattr(generator, "__name__", "proc")
        self.generator = generator
        self.name = self._label
        # Bound once here: _resume runs per yield, and creating these bound
        # methods there shows up in profiles.
        self._send = generator.send
        self._throw = generator.throw
        # Kick off the process at the current simulation time.
        bootstrap = Event(sim)
        bootstrap._value = None
        bootstrap.add_callback(self._resume)
        sim._schedule_now(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value/exception of *trigger*."""
        sim = self.sim
        # One iteration per yield: an event whose callbacks already ran is
        # fed straight back in (a loop, so joining any number of finished
        # processes in a row costs no stack).
        while True:
            try:
                # Direct slot access: *trigger* has fired by the time we
                # get here, so _exc/_value fully describe it.
                if trigger._exc is None:
                    target = self._send(trigger._value)
                else:
                    target = self._throw(trigger._exc)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody has joined: finish in place, as an event
                    # whose (zero) callbacks have already run.
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                if sim.strict:
                    raise
                self.fail(exc)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes "
                    "may only yield Event instances")
            if target.sim is not sim:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another "
                    "simulator")
            # Inlined target.add_callback(self._resume).
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                return
            trigger = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
