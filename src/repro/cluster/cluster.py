"""Cluster assembly: nodes, network, and experiment execution.

:class:`MinosCluster` is the library's main entry point.  It wires up the
simulated machine (hosts, NICs or SmartNICs, the network fabric), one
protocol engine per node, and the shared metrics sink, then runs client
drivers against it.

Typical use::

    from repro import MinosCluster, MINOS_O, LIN_SYNCH, YcsbWorkload

    cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_O)
    workload = YcsbWorkload(records=1000, requests_per_client=200)
    metrics = cluster.run_workload(workload, clients_per_node=2)
    print(metrics.write_latency.summary())
"""

from __future__ import annotations

import gc
import random
from typing import Any, Iterable, List, Optional, Union

from repro.cluster.client import ClosedLoopClient, OpenLoopClient
from repro.cluster.results import OpResult
from repro.core.config import MINOS_B, ProtocolConfig
from repro.core.model import DDPModel, LIN_SYNCH
from repro.errors import ConfigError
from repro.hw.host import Host
from repro.hw.nic import BaselineNic
from repro.hw.params import DEFAULT_MACHINE, MachineParams
from repro.hw.smartnic import SmartNic
from repro.kv.store import MinosKV
from repro.metrics.stats import Metrics
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class Node:
    """One simulated machine: host + (Smart)NIC + replica + engine."""

    def __init__(self, sim: Simulator, node_id: int, params: MachineParams,
                 model: DDPModel, config: ProtocolConfig, network: Network,
                 metrics: Metrics, peers: List[int]) -> None:
        # Imported here to keep hw/ <- core/ layering acyclic at import
        # time for the library's public modules.
        from repro.core.baseline.engine import BaselineEngine
        from repro.core.offload.engine import OffloadEngine

        self.node_id = node_id
        self.host = Host(sim, node_id, params)
        self.kv = MinosKV(sim, node_id)
        if config.offload:
            self.snic = SmartNic(sim, node_id, params, network,
                                 self.host.inbox,
                                 batching=config.batching,
                                 broadcast=config.broadcast)
            self.nic = None
            engine_cls, device = OffloadEngine, self.snic
        else:
            self.nic = BaselineNic(sim, node_id, params, network,
                                   self.host.inbox,
                                   broadcast=config.broadcast)
            self.snic = None
            engine_cls, device = BaselineEngine, self.nic
        self.engine = engine_cls(sim, node_id, params, model, config,
                                 self.host, device, self.kv, peers, metrics)


class MinosCluster:
    """A simulated MINOS deployment.

    Parameters
    ----------
    model:
        The ⟨consistency, persistency⟩ model (default ⟨Lin, Synch⟩).
    config:
        Architecture flags — :data:`~repro.core.config.MINOS_B`,
        :data:`~repro.core.config.MINOS_O`, or any Fig. 12 ablation preset.
    params:
        Hardware parameters (Tables II/III defaults).
    seed:
        Root seed for cluster-internal randomness (today: the open-loop
        clients' arrival processes).  Two clusters built with different
        roots draw disjoint streams even inside one process.
    """

    def __init__(self, model: DDPModel = LIN_SYNCH,
                 config: ProtocolConfig = MINOS_B,
                 params: MachineParams = DEFAULT_MACHINE,
                 seed: Union[int, str] = 0) -> None:
        if not isinstance(model, DDPModel):
            raise ConfigError(
                f"model must be a DDPModel, not {model!r}; look one up "
                "with repro.model_by_name()")
        if not isinstance(config, ProtocolConfig):
            raise ConfigError(
                f"config must be a ProtocolConfig, not {config!r}; look "
                "one up with repro.config_by_name()")
        self.model = model
        self.config = config
        self.params = params
        self.seed = seed
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.metrics = Metrics()
        peers = list(range(params.nodes))
        self.nodes = [Node(self.sim, node_id, params, model, config,
                           self.network, self.metrics, peers)
                      for node_id in peers]
        #: Installed :class:`repro.faults.FaultInjector` (None: fault-free).
        self.fault_injector = None
        #: Attached :class:`repro.obs.Observability` (None: detached).
        self.obs = None

    def attach_obs(self):
        """Attach a :class:`repro.obs.Observability` recorder to every
        engine, SmartNIC, fabric port, and the fault injector (if one is
        installed), and return it.  Spans, protocol-phase segments, and
        metrics are recorded from this point on; detached (the default)
        every call site costs one attribute check and the event calendar
        is byte-identical (see ``tests/sim/test_calendar_identity.py``)."""
        from repro.obs import Observability

        obs = Observability(self.sim)
        self.obs = obs
        for node in self.nodes:
            node.engine.obs = obs
            if node.snic is not None:
                node.snic.attach_obs(obs)
        self.network.install_obs(obs)
        if self.fault_injector is not None:
            self.fault_injector.obs = obs
        return obs

    # -- fault injection --------------------------------------------------------

    def enable_faults(self, plan, manager=None):
        """Install a :class:`repro.faults.FaultPlan` on this cluster.

        Creates the :class:`~repro.faults.FaultInjector`, attaches it to
        every fabric port, switches every engine into robustness mode
        (retransmit timers, duplicate suppression, stale-ACK tolerance)
        with the plan's :class:`~repro.faults.RetransmitPolicy`, and
        spawns drivers for the plan's crash windows.  Pass the cluster's
        :class:`~repro.core.recovery.RecoveryManager` as *manager* so
        scheduled restarts go through the full rejoin/catch-up exchange.

        Returns the injector (its ``counters`` record what was injected).
        """
        from repro.faults import FaultInjector

        if self.fault_injector is not None:
            raise ConfigError("fault plan already installed")
        for window in plan.crashes:
            if not 0 <= window.node < len(self.nodes):
                raise ConfigError(
                    f"crash window targets node {window.node} but the "
                    f"cluster has nodes 0..{len(self.nodes) - 1}")
        injector = FaultInjector(self.sim, plan)
        injector.obs = self.obs
        self.network.install_fault_injector(injector)
        self.fault_injector = injector
        for node in self.nodes:
            node.engine.robustness = plan.retransmit
            node.engine.tolerate_stale_acks = True
        injector.schedule_crashes(self, manager)
        return injector

    # -- database ---------------------------------------------------------------

    def load_records(self, records: Iterable[tuple]) -> int:
        """Pre-populate every replica with (key, value) pairs."""
        count = 0
        for key, value in records:
            for node in self.nodes:
                node.kv.load_initial(key, value)
            count += 1
        return count

    # -- direct operation API ------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def write(self, node_id: int, key: Any, value: Any,
              scope: Optional[int] = None) -> OpResult:
        """Run one client write to completion (drains the simulation)."""
        raw = self.sim.run_process(
            self.nodes[node_id].engine.client_write(key, value, scope=scope),
            name=f"write@{node_id}")
        # The write vouches for durability only when the model keeps the
        # persist in the critical path; otherwise it completes volatile.
        durable = (raw.ts if not raw.obsolete
                   and self.model.persist_in_critical_path else None)
        return OpResult(op="write", key=key, value=value,
                        latency=raw.latency, volatile_ts=raw.ts,
                        durable_ts=durable, obsolete=raw.obsolete)

    def read(self, node_id: int, key: Any) -> OpResult:
        """Run one client read to completion (drains the simulation)."""
        raw = self.sim.run_process(
            self.nodes[node_id].engine.client_read(key),
            name=f"read@{node_id}")
        meta = self.nodes[node_id].kv.meta(key)
        return OpResult(op="read", key=key, value=raw.value,
                        latency=raw.latency, volatile_ts=raw.ts,
                        durable_ts=meta.glb_durable_ts)

    def persist_scope(self, node_id: int, scope: int) -> OpResult:
        """Run one [PERSIST]sc to completion (⟨Lin, Scope⟩ only)."""
        latency = self.sim.run_process(
            self.nodes[node_id].engine.client_persist(scope),
            name=f"persist@{node_id}")
        return OpResult(op="persist", key=scope, value=None,
                        latency=latency, volatile_ts=None, durable_ts=None)

    # -- workload execution ------------------------------------------------------------

    def run_workload(self, workload, clients_per_node: int = 2,
                     nodes: Optional[List[int]] = None) -> Metrics:
        """Run a workload with closed-loop clients and return the metrics.

        *workload* must provide ``initial_records()`` and
        ``ops_for(node_id, client_idx)`` (see
        :class:`~repro.workloads.ycsb.YcsbWorkload`).
        """
        if clients_per_node < 1:
            raise ConfigError("clients_per_node must be >= 1")
        self.load_records(workload.initial_records())
        target_nodes = nodes if nodes is not None else range(len(self.nodes))
        clients = []
        for node_id in target_nodes:
            engine = self.nodes[node_id].engine
            for client_idx in range(clients_per_node):
                ops = workload.ops_for(node_id, client_idx)
                clients.append(ClosedLoopClient(self, engine, ops,
                                                client_idx))
        self.metrics.started_at = self.sim.now
        processes = [self.sim.spawn(c.run(), name=f"client.{i}")
                     for i, c in enumerate(clients)]
        # The run allocates heavily but creates no reference cycles worth
        # collecting mid-flight; pausing the cyclic GC is a measurable win
        # on wall-clock ops/s (the perf ledger's ``ops_per_s``).
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self.sim.run()
        finally:
            if was_enabled:
                gc.enable()
        unfinished = [p.name for p in processes if not p.triggered]
        if unfinished:
            raise ConfigError(
                f"workload deadlocked; unfinished drivers: {unfinished}")
        self.metrics.finished_at = max(
            (c.finished_at for c in clients if c.finished_at is not None),
            default=self.sim.now)
        return self.metrics

    def run_open_loop(self, workload, rate_per_client: float,
                      clients_per_node: int = 1) -> Metrics:
        """Run *workload* with open-loop (Poisson-arrival) clients.

        *rate_per_client* is the offered load per client in ops/second;
        operations are issued at that rate regardless of completions, so
        latencies include queueing once the cluster saturates.
        """
        if clients_per_node < 1:
            raise ConfigError("clients_per_node must be >= 1")
        self.load_records(workload.initial_records())
        # Independent per-client seeds spawned from the cluster's root.
        # The old formula (node_id * 1000 + client_idx) collided once
        # clients_per_node exceeded 1000 (node 0/client 1000 == node
        # 1/client 0) and welded every same-shaped cluster in a process
        # to the same arrival streams; 63-bit draws from a root-seeded
        # spawner are collision-free and stay deterministic per root.
        spawner = random.Random(f"repro.cluster/{self.seed}/openloop")
        clients = []
        for node in self.nodes:
            for client_idx in range(clients_per_node):
                ops = workload.ops_for(node.node_id, client_idx)
                clients.append(OpenLoopClient(
                    self, node.engine, ops, rate_per_client,
                    seed=spawner.getrandbits(63)))
        self.metrics.started_at = self.sim.now
        for i, client in enumerate(clients):
            self.sim.spawn(client.run(), name=f"openloop.{i}")
        self.sim.run()
        pending = [c for c in clients if not c.done.triggered]
        if pending:
            raise ConfigError(
                f"open-loop run deadlocked; {len(pending)} clients have "
                "in-flight operations")
        self.metrics.finished_at = max(
            (c.finished_at for c in clients if c.finished_at is not None),
            default=self.sim.now)
        return self.metrics

    # -- failure injection hooks (see repro.core.recovery) ---------------------------------

    def crash(self, node_id: int) -> int:
        """Crash a node: its engine stops processing, its (Smart)NIC is
        halted, and everything queued in its mailboxes is dropped — a
        crashed machine does not keep transmitting envelopes its host
        deposited before dying, nor does queued-but-unprocessed traffic
        survive into the restarted incarnation.  Returns the number of
        queued packets dropped."""
        node = self.nodes[node_id]
        node.engine.crashed = True
        node.engine.incarnation += 1
        device = node.snic if node.snic is not None else node.nic
        dropped = device.halt()
        dropped += node.host.inbox.clear()
        return dropped

    def restore(self, node_id: int) -> None:
        """Un-crash a node: the engine resumes and its (Smart)NIC starts
        forwarding again, with empty queues (protocol state catch-up is
        the recovery manager's job; see
        :class:`repro.core.recovery.RecoveryManager`)."""
        node = self.nodes[node_id]
        device = node.snic if node.snic is not None else node.nic
        device.resume()
        node.engine.crashed = False
