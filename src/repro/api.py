"""The stable public API of the MINOS reproduction.

Import from here (or from :mod:`repro`, which re-exports everything in
``__all__``) rather than from the internal submodules — the facade's
surface is covered by the API-contract tests and is kept
backwards-compatible across releases, while submodule layout is not.

The surface, by theme:

* **Building a cluster** — :class:`MinosCluster`, :class:`ProtocolConfig`
  with the :data:`MINOS_B` / :data:`MINOS_O` architecture presets, the
  :class:`DDPModel` presets (:data:`LIN_SYNCH`, :data:`LIN_STRICT`,
  :data:`LIN_RENF`, :data:`LIN_EVENT`, :data:`LIN_SCOPE`), and
  :class:`MachineParams` /
  :data:`DEFAULT_MACHINE` for the hardware point.
* **Running work** — :class:`YcsbWorkload`, :class:`ExperimentConfig` +
  :func:`run_experiment` for one experiment point, direct
  :meth:`MinosCluster.write` / ``read`` / ``persist_scope`` calls
  returning :class:`OpResult`.
* **Faults** — :class:`FaultPlan`, :class:`CrashWindow` and
  :func:`run_chaos` for seeded loss/duplication/delay plus
  crash/restart runs with invariant checking,
  :class:`RecoveryManager` for heartbeat-driven failure recovery, the
  plan builders :func:`cascading_crashes` / :func:`flapping_partition`,
  and :class:`DisasterSpec` for mid-run multi-node crashes rolled back
  through :meth:`RecoveryManager.restore_cluster`.
* **Verification** — :class:`ModelChecker` over a :class:`ProtocolSpec`
  of concurrent :class:`WriteDef` s (the Table I invariants).
* **Correctness checking** — :func:`run_check` (schedule/crash
  exploration over real cluster runs, returning a
  :class:`CheckReport`), the :class:`History` / :class:`HistoryOp`
  records with :class:`HistoryRecorder` + :class:`RecordingClient` to
  capture them, :func:`check_linearizability`
  (:class:`LinearizabilityReport`), :func:`check_durability`
  (:class:`DurabilityReport`, per-persistency-model crash rules),
  :func:`check_rollback` / :func:`restore_line` for multi-node and
  whole-cluster rollback from the surviving NVM logs,
  :func:`shrink_history` for counterexample minimization, and
  :class:`CheckWorkload` (see docs/correctness_checking.md).
* **Microservices** — :data:`MEDIA_LOGIN` / :data:`SOCIAL_LOGIN`
  workflows with :func:`run_microservice` (Fig. 14), and :func:`us`
  for microsecond literals.
* **Observability** — :class:`Observability` (attach via
  :meth:`MinosCluster.attach_obs`), :class:`MetricsRegistry` /
  :class:`LogHistogram`, the :class:`Span` / :class:`Segment` records,
  and the exporters :func:`chrome_trace` / :func:`write_chrome_trace`
  (Perfetto-loadable) / :func:`write_jsonl` with
  :func:`validate_chrome_trace` (see docs/observability.md).
* **Results** — :class:`OpResult`, :class:`ExperimentResult`,
  :class:`Metrics`, :class:`Timestamp`.
* **Static analysis** — :func:`run_analysis` (the ``repro lint`` pass
  over a checkout; see docs/static_analysis.md).
"""

from __future__ import annotations

from repro.analysis import run_analysis
from repro.bench.harness import (ExperimentConfig, ExperimentResult,
                                 run_experiment, run_microservice)
from repro.check import (CheckReport, CheckWorkload, DurabilityReport,
                         History, HistoryOp, HistoryRecorder,
                         LinearizabilityReport, RecordingClient,
                         check_durability, check_linearizability,
                         check_rollback, restore_line, run_check,
                         shrink_history)
from repro.cluster.cluster import MinosCluster
from repro.cluster.results import OpResult
from repro.core.config import (MINOS_B, MINOS_O, ProtocolConfig,
                               config_by_name)
from repro.core.model import (ALL_MODELS, LIN_EVENT, LIN_RENF, LIN_SCOPE,
                              LIN_STRICT, LIN_SYNCH, DDPModel, model_by_name)
from repro.core.recovery import RecoveryManager
from repro.core.timestamp import Timestamp
from repro.faults import (CrashWindow, DisasterSpec, FaultPlan,
                          cascading_crashes, flapping_partition, run_chaos)
from repro.hw.params import DEFAULT_MACHINE, MachineParams, us
from repro.metrics.stats import Metrics
from repro.obs import (LogHistogram, MetricsRegistry, Observability,
                       Segment, Span, chrome_trace, validate_chrome_trace,
                       write_chrome_trace, write_jsonl)
from repro.verify import ModelChecker, ProtocolSpec, WriteDef
from repro.workloads import MEDIA_LOGIN, SOCIAL_LOGIN
from repro.workloads.ycsb import YcsbWorkload

__all__ = [
    # cluster + architecture
    "MinosCluster",
    "ProtocolConfig",
    "MINOS_B",
    "MINOS_O",
    "config_by_name",
    # DDP models
    "DDPModel",
    "ALL_MODELS",
    "LIN_SYNCH",
    "LIN_STRICT",
    "LIN_RENF",
    "LIN_EVENT",
    "LIN_SCOPE",
    "model_by_name",
    # hardware point
    "MachineParams",
    "DEFAULT_MACHINE",
    "us",
    # workloads + experiments
    "YcsbWorkload",
    "MEDIA_LOGIN",
    "SOCIAL_LOGIN",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_microservice",
    # faults + recovery
    "FaultPlan",
    "CrashWindow",
    "DisasterSpec",
    "cascading_crashes",
    "flapping_partition",
    "run_chaos",
    "RecoveryManager",
    # verification
    "ModelChecker",
    "ProtocolSpec",
    "WriteDef",
    # correctness checking
    "run_check",
    "CheckReport",
    "CheckWorkload",
    "History",
    "HistoryOp",
    "HistoryRecorder",
    "RecordingClient",
    "LinearizabilityReport",
    "DurabilityReport",
    "check_linearizability",
    "check_durability",
    "check_rollback",
    "restore_line",
    "shrink_history",
    # observability
    "Observability",
    "MetricsRegistry",
    "LogHistogram",
    "Span",
    "Segment",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "validate_chrome_trace",
    # results
    "OpResult",
    "Metrics",
    "Timestamp",
    # static analysis
    "run_analysis",
]
