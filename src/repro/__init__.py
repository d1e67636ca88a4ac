"""MINOS reproduction: DDP protocols with SmartNIC offload, simulated.

Reproduces "MINOS: Distributed Consistency and Persistency Protocol
Implementation & Offloading to SmartNICs" (HPCA 2024): the MINOS-Baseline
and MINOS-Offload algorithms for Linearizable consistency combined with
five persistency models, on a calibrated discrete-event simulator.

Quick start::

    from repro import MinosCluster, MINOS_O, LIN_SYNCH, YcsbWorkload

    cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_O)
    metrics = cluster.run_workload(
        YcsbWorkload(records=500, requests_per_client=100))
    print(metrics.write_latency.summary())

The names in :mod:`repro.api` form the stable public surface (see
docs/api.md); they are all re-exported here.

Exports resolve lazily (PEP 562): ``import repro`` is cheap, and
tooling entry points that need no simulator — ``python -m repro lint``
in particular — never pull in :mod:`repro.sim` at all.
"""

from typing import List

__version__ = "1.0.0"

#: Lazy export table: public name -> defining module.  ``__getattr__``
#: imports the module on first attribute access and caches the value in
#: the package namespace, so each import cost is paid at most once.
_EXPORTS = {
    # stable facade (everything in repro.api.__all__, same objects)
    "api": "repro.api",
    "MinosCluster": "repro.cluster.cluster",
    "ProtocolConfig": "repro.core.config",
    "MINOS_B": "repro.core.config",
    "MINOS_O": "repro.core.config",
    "config_by_name": "repro.core.config",
    "ABLATION_CONFIGS": "repro.core.config",
    "B_BATCHING": "repro.core.config",
    "B_BROADCAST": "repro.core.config",
    "COMBINED": "repro.core.config",
    "COMBINED_BATCHING": "repro.core.config",
    "COMBINED_BROADCAST": "repro.core.config",
    "DDPModel": "repro.core.model",
    "ALL_MODELS": "repro.core.model",
    "LIN_SYNCH": "repro.core.model",
    "LIN_STRICT": "repro.core.model",
    "LIN_RENF": "repro.core.model",
    "LIN_EVENT": "repro.core.model",
    "LIN_SCOPE": "repro.core.model",
    "model_by_name": "repro.core.model",
    "Persistency": "repro.core.model",
    "Timestamp": "repro.core.timestamp",
    "RecoveryManager": "repro.core.recovery",
    "MachineParams": "repro.hw.params",
    "DEFAULT_MACHINE": "repro.hw.params",
    "us": "repro.hw.params",
    "YcsbWorkload": "repro.workloads.ycsb",
    "ExperimentConfig": "repro.bench.harness",
    "ExperimentResult": "repro.bench.harness",
    "run_experiment": "repro.bench.harness",
    "run_microservice": "repro.bench.harness",
    "FaultPlan": "repro.faults",
    "CrashWindow": "repro.faults",
    "DisasterSpec": "repro.faults",
    "cascading_crashes": "repro.faults",
    "flapping_partition": "repro.faults",
    "run_chaos": "repro.faults",
    "ModelChecker": "repro.verify",
    "ProtocolSpec": "repro.verify",
    "WriteDef": "repro.verify",
    "run_check": "repro.check",
    "CheckReport": "repro.check",
    "CheckWorkload": "repro.check",
    "History": "repro.check",
    "HistoryOp": "repro.check",
    "HistoryRecorder": "repro.check",
    "RecordingClient": "repro.check",
    "LinearizabilityReport": "repro.check",
    "DurabilityReport": "repro.check",
    "check_linearizability": "repro.check",
    "check_durability": "repro.check",
    "check_rollback": "repro.check",
    "restore_line": "repro.check",
    "shrink_history": "repro.check",
    "Observability": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "LogHistogram": "repro.obs",
    "Span": "repro.obs",
    "Segment": "repro.obs",
    "chrome_trace": "repro.obs",
    "write_chrome_trace": "repro.obs",
    "write_jsonl": "repro.obs",
    "validate_chrome_trace": "repro.obs",
    "OpResult": "repro.cluster.results",
    "Metrics": "repro.metrics.stats",
    "run_analysis": "repro.analysis",
    # convenience re-exports beyond the facade
    "ClosedLoopClient": "repro.cluster",
    "Node": "repro.cluster",
    "Breakdown": "repro.metrics",
    "write_breakdown": "repro.metrics",
    "MEDIA_LOGIN": "repro.workloads",
    "SOCIAL_LOGIN": "repro.workloads",
    "Op": "repro.workloads",
    "OpKind": "repro.workloads",
    "TraceWorkload": "repro.workloads.trace",
    "parse_trace": "repro.workloads.trace",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if name == "api" else getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
