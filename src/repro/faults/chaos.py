"""One-call chaos harness: workload + fault plan + invariant checks.

``run_chaos`` glues the pieces of a fault-injection experiment together
the way the acceptance tests and the ``repro chaos`` CLI command need
them: a :class:`~repro.core.recovery.RecoveryManager` for failure
detection and rejoin, the cluster's fault injector, closed-loop clients
pinned to nodes that are *not* scheduled to crash (the paper leaves
coordinator crash recovery to future work), a sliced simulation loop
(the manager's heartbeat processes never terminate, so the calendar
never drains), and a final :class:`~repro.verify.runtime.RuntimeMonitor`
pass over the quiesced cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.client import ClosedLoopClient
from repro.errors import ConfigError, VerificationError
from repro.hw.params import us


@dataclass(frozen=True)
class DisasterSpec:
    """A mid-run catastrophe for :func:`run_chaos`.

    At ``at`` the last *victims* nodes (highest node ids) crash
    simultaneously; after ``down_for`` the whole set is rolled back to
    the latest consistent state their NVM logs hold, via
    :meth:`~repro.core.recovery.RecoveryManager.restore_cluster` —
    rollback *under load*, since the surviving clients keep issuing
    operations throughout.
    """

    at: float
    victims: int = 2
    down_for: float = us(500)

    def __post_init__(self) -> None:
        if self.at < 0 or self.down_for <= 0:
            raise ConfigError("disaster times must be positive")
        if self.victims < 1:
            raise ConfigError("a disaster needs at least one victim")


@dataclass
class ChaosResult:
    """Outcome of one :func:`run_chaos` run."""

    #: Every client driver finished its request stream.
    completed: bool
    #: Which invariant suite ran: ``"quiescent"`` (all crashed nodes were
    #: restored) or ``"anytime"`` (some node stayed down, so only the
    #: any-time checks apply).
    checks: str
    #: Runtime-invariant violations (empty on a clean run).
    violations: List[str] = field(default_factory=list)
    metrics: object = None
    #: The fault injector's :class:`~repro.faults.FaultCounters`.
    fault_counters: object = None
    #: Failure-detector exclusions / completed rejoins.
    detections: int = 0
    rejoins: int = 0
    #: Simulated seconds the whole run (including settling) took.
    duration: float = 0.0
    #: Nodes rolled back through disaster restore (0: no disaster).
    restored: int = 0
    #: Cluster-wide peak NvmLog length observed at the end.
    peak_log_length: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "completed": self.completed,
            "checks": self.checks,
            "violations": list(self.violations),
            "detections": self.detections,
            "rejoins": self.rejoins,
            "duration_s": self.duration,
            "restored": self.restored,
            "peak_log_length": self.peak_log_length,
            "faults": self.fault_counters.to_dict(),
            "metrics": self.metrics.to_dict(),
        }


def run_chaos(cluster, plan, workload, clients_per_node: int = 2,
              nodes: Optional[List[int]] = None,
              heartbeat_interval: float = us(20),
              detect_timeout: float = us(100),
              slice_s: float = us(2_000),
              max_time: float = us(500_000),
              settle_s: float = us(5_000),
              disaster: Optional[DisasterSpec] = None) -> ChaosResult:
    """Run *workload* on *cluster* under *plan* and check invariants.

    Clients are placed on every node not named in a crash window unless
    *nodes* pins them explicitly.  The simulation advances in *slice_s*
    steps until every driver finished (or *max_time* is reached), then
    settles for *settle_s* past the last scheduled restart so rejoin
    catch-up, blind VAL re-broadcasts, and retransmit give-ups all drain
    before the invariant checks run.

    *disaster* (a :class:`DisasterSpec`) additionally crashes a block of
    nodes mid-run and rolls them back through
    :meth:`~repro.core.recovery.RecoveryManager.restore_cluster` while
    the surviving clients stay under load.
    """
    from repro.core.recovery import RecoveryManager
    from repro.verify.runtime import RuntimeMonitor

    sim = cluster.sim
    manager = RecoveryManager(cluster, heartbeat_interval=heartbeat_interval,
                              timeout=detect_timeout)
    injector = cluster.enable_faults(plan, manager)

    disaster_victims: List[int] = []
    if disaster is not None:
        if disaster.victims >= len(cluster.nodes):
            raise ConfigError("a chaos disaster needs at least one "
                              "surviving node to keep clients under load "
                              "(whole-cluster crashes are run_check's "
                              "territory)")
        disaster_victims = list(range(len(cluster.nodes) - disaster.victims,
                                      len(cluster.nodes)))

    crash_nodes = {window.node for window in plan.crashes}
    crash_nodes.update(disaster_victims)
    if nodes is None:
        nodes = [node.node_id for node in cluster.nodes
                 if node.node_id not in crash_nodes]
    if not nodes:
        raise ConfigError("no nodes left to run clients on — every node "
                          "is scheduled to crash")
    cluster.load_records(workload.initial_records())
    clients = []
    for node_id in nodes:
        engine = cluster.nodes[node_id].engine
        for client_idx in range(clients_per_node):
            ops = workload.ops_for(node_id, client_idx)
            clients.append(ClosedLoopClient(cluster, engine, ops,
                                            client_idx))
    cluster.metrics.started_at = sim.now
    drivers = [sim.spawn(client.run(), name=f"chaos.client.{i}")
               for i, client in enumerate(clients)]

    restored_nodes: List[int] = []

    def disaster_driver():
        yield sim.timeout(disaster.at - sim.now)
        for vid in disaster_victims:
            cluster.crash(vid)
        yield sim.timeout(disaster.down_for)
        rolled = yield from manager.restore_cluster(disaster_victims)
        restored_nodes.extend(rolled)

    if disaster is not None:
        sim.spawn(disaster_driver(), name="chaos.disaster")

    while (not all(d.triggered for d in drivers)) and sim.now < max_time:
        sim.run(until=min(max_time, sim.now + slice_s))
    completed = all(d.triggered for d in drivers)
    cluster.metrics.finished_at = max(
        (c.finished_at for c in clients if c.finished_at is not None),
        default=sim.now)

    restarts = [w.restore_at for w in plan.crashes if w.restore_at is not None]
    if disaster is not None:
        restarts.append(disaster.at + disaster.down_for)
    sim.run(until=max([sim.now] + restarts) + settle_s)

    monitor = RuntimeMonitor(cluster)
    unrestored = [w.node for w in plan.crashes if w.restore_at is None]
    checks = "anytime" if unrestored else "quiescent"
    violations: List[str] = []
    try:
        if unrestored:
            # A permanently-down node can't agree with the survivors;
            # only the any-time invariants apply cluster-wide.
            monitor.check_glb_not_ahead()
        else:
            monitor.check_quiescent()
    except VerificationError as exc:
        violations.append(str(exc))

    return ChaosResult(completed=completed, checks=checks,
                       violations=violations, metrics=cluster.metrics,
                       fault_counters=injector.counters,
                       detections=manager.detections,
                       rejoins=manager.rejoins, duration=sim.now,
                       restored=len(restored_nodes),
                       peak_log_length=max(node.kv.log.peak_length
                                           for node in cluster.nodes))
