"""Exception hierarchy for the MINOS reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class StopSimulation(Exception):
    """Internal control-flow signal used to stop :meth:`Simulator.run`.

    Deliberately not a :class:`ReproError`: it must never be swallowed by a
    blanket ``except ReproError`` inside protocol code.
    """


class ProtocolError(ReproError):
    """A protocol engine reached a state the algorithms do not allow."""


class ConfigError(ReproError):
    """Invalid experiment, hardware, or protocol configuration."""


class KVError(ReproError):
    """Errors from the MINOS-KV store (missing keys, bad record sizes)."""


class RecoveryError(ReproError):
    """Errors in failure detection / node recovery handling."""


class VerificationError(ReproError):
    """The model checker found an invariant violation.

    The offending state trace is attached as :attr:`trace`.
    """

    def __init__(self, message: str, trace: tuple = ()) -> None:
        super().__init__(message)
        self.trace = trace
