"""Schedule/crash exploration driving the history checkers.

``run_check`` is the implementation-level analogue of the abstract
model checker in :mod:`repro.verify`: instead of enumerating protocol
states, it runs the *real* engines under seeded schedule perturbation
(bounded delay/reorder via :class:`~repro.faults.FaultPlan`) and crash
points enumerated at protocol-phase boundaries, records the
client-visible history, and checks it for linearizability
(:mod:`repro.check.wgl`) and the model's durable-linearizability rules
(:mod:`repro.check.durable`).

Per seed:

1. A **baseline run** (no crash) under that seed's delay/reorder plan.
   Its obs segments supply the phase-boundary times that make good
   crash candidates.
2. One **crash run** per candidate: the last node (never a client
   host — the paper leaves coordinator crash recovery to future work)
   is crashed at the candidate time, its durable NVM state snapshotted
   at the crash instant, and recovered through the full
   :class:`~repro.core.recovery.RecoveryManager` rejoin.  The snapshot
   is checked against the model's durability floor, and post-recovery
   probe reads join the history so the linearizability check spans the
   crash.

Any failing run is shrunk to a 1-minimal counterexample
(:mod:`repro.check.shrink`) and, on request, exported through
:mod:`repro.obs` for Perfetto inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.check.durable import (check_durability, check_rollback,
                                 post_recovery_read_violations,
                                 restore_line)
from repro.check.history import (History, HistoryOp, HistoryRecorder,
                                 RecordingClient)
from repro.check.shrink import shrink_history
from repro.check.wgl import check_linearizability
from repro.check.workload import CheckWorkload
from repro.errors import ConfigError
from repro.hw.params import DEFAULT_MACHINE, us

#: Segment phases whose boundaries make interesting crash points: the
#: protocol is mid-transaction — INVs in flight, ACKs outstanding,
#: log appends racing the fan-out.
CRASH_PHASES = ("inv_fanout", "ack_wait", "log_append", "val_broadcast",
                "snic_wait", "vfifo_enqueue", "dfifo_enqueue",
                "scope_wait")

#: Nudge past a phase boundary so the crash lands strictly after the
#: boundary's own events (1 ns at the simulator's seconds timebase).
_EPSILON = 1e-9

CRASH_POINT_MODES = ("none", "phase", "uniform")


@dataclass(slots=True)
class RunOutcome:
    """One explored schedule: verdicts and bookkeeping."""

    seed: int
    label: str
    crash_at: Optional[float]
    ops: int
    pending: int
    completed: bool
    linearizable: bool
    durability_ok: bool
    states: int
    duration: float
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.completed and self.linearizable
                and self.durability_ok and not self.violations)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "label": self.label,
            "crash_at": self.crash_at, "ops": self.ops,
            "pending": self.pending, "completed": self.completed,
            "linearizable": self.linearizable,
            "durability_ok": self.durability_ok, "states": self.states,
            "duration_s": self.duration,
            "violations": list(self.violations),
        }


@dataclass(slots=True)
class Counterexample:
    """A failing schedule, shrunk to its essential events."""

    seed: int
    label: str
    crash_at: Optional[float]
    kind: str  # "linearizability" | "durability" | "liveness"
    key: Any
    detail: str
    #: The 1-minimal failing events (history-op dicts).
    events: List[dict] = field(default_factory=list)
    #: Perfetto trace / history JSON written on ``--export``.
    exported: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "label": self.label,
                "crash_at": self.crash_at, "kind": self.kind,
                "key": self.key, "detail": self.detail,
                "events": list(self.events),
                "exported": list(self.exported)}


@dataclass(slots=True)
class CheckReport:
    """Aggregate of every explored schedule."""

    model: str
    arch: str
    nodes: int
    seeds: int
    crash_points: str
    runs: List[RunOutcome] = field(default_factory=list)
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs) and bool(self.runs)

    def to_dict(self) -> dict:
        return {
            "schema": "repro-check/1",
            "model": self.model, "arch": self.arch, "nodes": self.nodes,
            "seeds": self.seeds, "crash_points": self.crash_points,
            "ok": self.ok,
            "runs": [run.to_dict() for run in self.runs],
            "counterexample": (self.counterexample.to_dict()
                               if self.counterexample else None),
        }


@dataclass(slots=True)
class _RunData:
    """Everything one simulated run produced."""

    outcome: RunOutcome
    history: object
    obs: object
    lin_report: object
    first_failing_key: Any
    fail_kind: Optional[str]
    fail_detail: str
    fail_evidence: Tuple[int, ...]
    finish_time: float


def _resolve(model, config):
    from repro.core.config import config_by_name
    from repro.core.model import model_by_name

    if isinstance(model, str):
        model = model_by_name(model)
    if isinstance(config, str):
        config = config_by_name(config)
    return model, config


def _one_run(model, config, nodes: int, workload: CheckWorkload,
             plan_seed: int, crash_at: Optional[float], label: str,
             clients_per_node: int, delay: float, reorder: float,
             recover_after: float, max_time: float, settle: float,
             setup=None, victims: int = 1) -> _RunData:
    from repro.cluster.cluster import MinosCluster
    from repro.core.recovery import RecoveryManager
    from repro.faults import FaultPlan, LinkFaults

    cluster = MinosCluster(model=model, config=config,
                           params=DEFAULT_MACHINE.with_nodes(nodes))
    sim = cluster.sim
    obs = cluster.attach_obs()
    if setup is not None:
        setup(cluster)
    manager = RecoveryManager(cluster, heartbeat_interval=us(20),
                              timeout=us(100))
    plan = FaultPlan(seed=plan_seed,
                     default=LinkFaults(delay=delay, reorder=reorder))
    cluster.enable_faults(plan, manager)
    cluster.load_records(workload.initial_records())

    recorder = HistoryRecorder(sim)
    victim = nodes - 1
    clients = []
    for node_id in range(nodes - 1):
        engine = cluster.nodes[node_id].engine
        for client_idx in range(clients_per_node):
            ops = workload.ops_for(node_id, client_idx)
            clients.append(RecordingClient(cluster, engine, ops, recorder,
                                           client_idx))
    drivers = [sim.spawn(client.run(), name=f"check.client.{i}")
               for i, client in enumerate(clients)]

    # Disaster mode (victims > 1): crash the last *victims* nodes at
    # once — up to the whole cluster — and restore through rollback
    # recovery rather than the single-node rejoin exchange.
    victim_ids = list(range(nodes - victims, nodes))
    disaster = victims > 1

    snapshot: Dict[Any, Tuple[Any, Any]] = {}
    snapshots: Dict[int, Dict[Any, Tuple[Any, Any]]] = {}
    crash_time: List[float] = []
    restore_time: List[float] = []
    restore_done: List[float] = []

    def crash_driver():
        yield sim.timeout(crash_at - sim.now)
        # Snapshot every node's surviving durable state (its NVM log)
        # at the crash instant — what the NVM actually holds is exactly what the durability floor and the
        # rollback rules are claims about.
        for node in cluster.nodes:
            snapshots[node.node_id] = {
                key: (entry.ts, entry.value)
                for key, entry in node.kv.log.durable_snapshot().items()}
        log = cluster.nodes[victim].kv.log
        for key in workload.key_names:
            ts = log.durable_ts(key)
            if ts is not None:
                snapshot[key] = (ts, log.durable_value(key))
        crash_time.append(sim.now)
        for vid in victim_ids:
            manager.crash(vid)
        yield sim.timeout(recover_after)
        restore_time.append(sim.now)
        if disaster:
            yield from manager.restore_cluster(victim_ids)
            restore_done.append(sim.now)
        else:
            manager.recover(victim)

    if crash_at is not None:
        sim.spawn(crash_driver(), name=f"check.crash.n{victim}")

    # Sliced advance: the manager's heartbeat loops never terminate, so
    # the calendar never drains on its own.
    slice_s = us(2_000)
    while (not all(d.triggered for d in drivers)) and sim.now < max_time:
        sim.run(until=min(max_time, sim.now + slice_s))
    completed = all(d.triggered for d in drivers)
    if not completed and disaster and crash_time:
        # Crashed client hosts legally lose their in-flight drivers —
        # a disaster run's verdict is about the restored state, not
        # workload completion (the dead ops stay pending in the
        # history, where the linearizability check handles them).
        completed = True
    finish = sim.now
    # Settle past the restore so rejoin catch-up and retransmit
    # give-ups drain before the probes run.
    horizon = max([sim.now] + restore_time) + settle
    sim.run(until=horizon)

    # Post-run probes: read every workload key on every alive node.
    # They join the history, so the linearizability check covers the
    # recovered state; after a crash they additionally feed the
    # post-recovery read rules.
    probes = []
    for node in cluster.nodes:
        if node.engine.crashed:
            continue
        for key in workload.key_names:
            rec = recorder.invoke(f"probe-n{node.node_id}", "read",
                                  key=key)
            result = sim.run_process(
                node.engine.client_read(key),
                name=f"check.probe.n{node.node_id}.{key}")
            recorder.respond_read(rec, result)
            probes.append(rec)

    history = recorder.history()
    # Rollback-aware durable linearizability for disaster runs:
    # rollback recovery legally rewinds every key to the restore line
    # (under Event/Scope even *acked* writes may be lost), which a
    # classic register linearization cannot express — a post-restore
    # read of the rewound value has no witness in the raw history.
    # Model the rewind itself as one synthetic write per key spanning
    # [crash, restore-complete]; whether that rewind line was *legal*
    # is exactly what check_rollback's floor rules judge below, so the
    # linearizability check is left to judge the history GIVEN it.
    lin_history = history
    if disaster and crash_time and restore_done:
        line = restore_line(snapshots)
        resets = [
            HistoryOp(op_id=-(idx + 1), client="rollback", kind="write",
                      key=key,
                      value=line[key][1] if key in line else None,
                      invoked=crash_time[0], responded=restore_done[0])
            for idx, key in enumerate(workload.key_names)]
        lin_history = History(list(history.ops) + resets)
    lin = check_linearizability(lin_history)

    violations: List[str] = []
    fail_kind = None
    fail_key = None
    fail_detail = ""
    fail_evidence: Tuple[int, ...] = ()
    if not completed:
        fail_kind, fail_detail = "liveness", \
            f"workload did not complete within {max_time:.6g}s simulated"
        violations.append(fail_detail)
    durability_ok = True
    if crash_time:
        if disaster:
            dur = check_rollback(model, history, crash_time[0], snapshots)
        else:
            dur = check_durability(model, history, crash_time[0], snapshot)
        post = post_recovery_read_violations(model, history,
                                             crash_time[0], probes)
        for violation in list(dur.violations) + post:
            durability_ok = False
            violations.append(str(violation))
            if fail_kind is None:
                fail_kind = "durability"
                fail_key = violation.key
                fail_detail = str(violation)
                fail_evidence = violation.evidence
    if not lin.ok:
        for key in lin.failing_keys:
            violations.append(
                f"[linearizability] key={key!r}: no valid linearization "
                f"of {lin.keys[key].ops} ops "
                f"({lin.keys[key].states} states searched)")
        if fail_kind is None:
            fail_kind = "linearizability"
            fail_key = lin.failing_keys[0]
            fail_detail = violations[-len(lin.failing_keys)]

    outcome = RunOutcome(
        seed=plan_seed, label=label, crash_at=crash_at,
        ops=len(history), pending=len(history.pending),
        completed=completed, linearizable=lin.ok,
        durability_ok=durability_ok, states=lin.states,
        duration=sim.now, violations=violations)
    return _RunData(outcome=outcome, history=lin_history, obs=obs,
                    lin_report=lin, first_failing_key=fail_key,
                    fail_kind=fail_kind, fail_detail=fail_detail,
                    fail_evidence=fail_evidence, finish_time=finish)


def _phase_crash_points(obs, finish: float, trials: int) -> List[float]:
    """Crash candidates at protocol-phase boundaries of a recon run."""
    bounds = sorted({seg.end for seg in obs.segments
                     if seg.phase in CRASH_PHASES
                     and 0.0 < seg.end < finish})
    if not bounds:
        return _uniform_crash_points(finish, trials)
    count = min(trials, len(bounds))
    # Spread deterministically across the run instead of sampling.
    picks = [bounds[(i + 1) * len(bounds) // (count + 1)]
             for i in range(count)]
    return sorted({t + _EPSILON for t in picks})


def _uniform_crash_points(finish: float, trials: int) -> List[float]:
    span = max(finish, us(10))
    return [span * (i + 1) / (trials + 1) for i in range(trials)]


def _export_failure(data: _RunData, counterexample: Counterexample,
                    export: str) -> None:
    import json

    from repro.obs import write_chrome_trace

    trace_path = f"{export}.trace.json"
    history_path = f"{export}.history.json"
    write_chrome_trace(data.obs, trace_path)
    with open(history_path, "w", encoding="utf-8") as handle:
        json.dump({"counterexample": counterexample.to_dict(),
                   "history": data.history.to_dicts()}, handle, indent=2)
        handle.write("\n")
    counterexample.exported = [trace_path, history_path]


def _counterexample(data: _RunData, export: Optional[str]
                    ) -> Counterexample:
    outcome = data.outcome
    by_id = {op.op_id: op for op in data.history}
    if data.fail_kind == "linearizability":
        ops = data.history.per_key()[data.first_failing_key]
        shrunk = shrink_history(ops)
        events = [op.to_dict() for op in shrunk]
    else:
        events = [by_id[op_id].to_dict()
                  for op_id in data.fail_evidence if op_id in by_id]
    counterexample = Counterexample(
        seed=outcome.seed, label=outcome.label,
        crash_at=outcome.crash_at, kind=data.fail_kind or "unknown",
        key=data.first_failing_key, detail=data.fail_detail,
        events=events)
    if export:
        _export_failure(data, counterexample, export)
    return counterexample


def run_check(model="synch", config="MINOS-B", nodes: int = 3,
              ops_per_client: int = 16, clients_per_node: int = 1,
              keys: int = 6, write_fraction: float = 0.6,
              seeds: int = 3, base_seed: int = 0,
              crash_points: str = "phase", crash_trials: int = 2,
              delay: float = 0.2, reorder: float = 0.1,
              recover_after: float = us(300), settle: float = us(3_000),
              max_time: float = us(300_000),
              export: Optional[str] = None, setup=None,
              victims: int = 1) -> CheckReport:
    """Explore schedules and crash points; check every history.

    *setup* (when given) is called with each freshly built cluster
    before the run starts — the hook the mutation tests use to plant
    bugs, and a handy place to attach extra instrumentation.

    *victims* > 1 switches each crash run into **disaster mode**: the
    last *victims* nodes (up to the whole cluster) crash at once, the
    run restores via
    :meth:`~repro.core.recovery.RecoveryManager.restore_cluster`
    rollback recovery from every node's NVM log, and the surviving
    state is judged by the :func:`~repro.check.durable.check_rollback`
    rules instead of the single-victim durability floor.

    Returns a :class:`CheckReport`; ``report.ok`` is the verdict and
    ``report.counterexample`` holds the shrunk failing schedule (plus
    exported artifact paths when *export* was given).
    """
    model, config = _resolve(model, config)
    if nodes < 2:
        raise ConfigError("run_check needs >= 2 nodes (one is reserved "
                          "as the crash victim)")
    if not 1 <= victims <= nodes:
        raise ConfigError(f"victims must be in 1..{nodes} (the node "
                          f"count), not {victims}")
    if crash_points not in CRASH_POINT_MODES:
        raise ConfigError(f"crash_points must be one of "
                          f"{CRASH_POINT_MODES}, not {crash_points!r}")
    report = CheckReport(model=model.name, arch=config.name, nodes=nodes,
                         seeds=seeds, crash_points=crash_points)

    def record(data: _RunData) -> None:
        report.runs.append(data.outcome)
        if not data.outcome.ok and report.counterexample is None:
            report.counterexample = _counterexample(data, export)

    for index in range(seeds):
        seed = base_seed + index
        workload = CheckWorkload(keys=keys, ops_per_client=ops_per_client,
                                 write_fraction=write_fraction, seed=seed,
                                 persists=model.uses_scopes)
        common = dict(model=model, config=config, nodes=nodes,
                      workload=workload, plan_seed=seed,
                      clients_per_node=clients_per_node, delay=delay,
                      reorder=reorder, recover_after=recover_after,
                      max_time=max_time, settle=settle, setup=setup,
                      victims=victims)
        baseline = _one_run(crash_at=None, label=f"seed{seed}", **common)
        record(baseline)
        if crash_points == "none":
            continue
        if crash_points == "phase":
            candidates = _phase_crash_points(baseline.obs,
                                             baseline.finish_time,
                                             crash_trials)
        else:
            candidates = _uniform_crash_points(baseline.finish_time,
                                               crash_trials)
        for trial, crash_at in enumerate(candidates):
            data = _one_run(crash_at=crash_at,
                            label=f"seed{seed}.crash{trial}", **common)
            record(data)
    return report
