"""Implementation-level correctness checking (durable linearizability).

The spec↔implementation bridge: :mod:`repro.verify` model-checks the
*abstract* protocol; this package checks that the *implementation* in
:mod:`repro.core` actually produces linearizable histories — and honors
each persistency model's durability guarantee across crashes — by
recording invocation/response histories from real cluster runs and
checking them under seeded schedule/crash exploration.

Entry points: :func:`run_check` (the explorer; also ``repro check`` on
the command line) and the building blocks
:func:`check_linearizability`, :func:`check_durability`,
:func:`shrink_history`.  See docs/correctness_checking.md.
"""

from repro.check.durable import (DurabilityReport, DurabilityViolation,
                                 check_durability, check_rollback,
                                 durability_floors,
                                 post_recovery_read_violations,
                                 restore_line)
from repro.check.history import (History, HistoryOp, HistoryRecorder,
                                 RecordingClient)
from repro.check.runner import (CheckReport, Counterexample, RunOutcome,
                                run_check)
from repro.check.shrink import shrink_history
from repro.check.wgl import (KeyReport, LinearizabilityReport,
                             check_key_history, check_linearizability)
from repro.check.workload import CheckWorkload

__all__ = [
    "CheckReport",
    "CheckWorkload",
    "Counterexample",
    "DurabilityReport",
    "DurabilityViolation",
    "History",
    "HistoryOp",
    "HistoryRecorder",
    "KeyReport",
    "LinearizabilityReport",
    "RecordingClient",
    "RunOutcome",
    "check_durability",
    "check_key_history",
    "check_rollback",
    "check_linearizability",
    "durability_floors",
    "post_recovery_read_violations",
    "restore_line",
    "run_check",
    "shrink_history",
]
