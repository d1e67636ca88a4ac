"""Experiment harness: one call = one (architecture, model, workload) run.

The bench layer (and the per-figure code in :mod:`repro.bench.figures`)
builds every paper experiment from :func:`run_experiment` /
:func:`run_microservice`.  Request counts are scaled down from the paper's
100 000/node (a pure-Python DES, see DESIGN.md §2); the knobs accept the
full-scale values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import MinosCluster
from repro.core.config import MINOS_B, ProtocolConfig
from repro.core.model import DDPModel, LIN_SYNCH
from repro.errors import ConfigError
from repro.hw.params import DEFAULT_MACHINE, MachineParams
from repro.metrics.breakdown import Breakdown, write_breakdown
from repro.metrics.stats import LatencyRecorder, Metrics, Summary
from repro.workloads.deathstar import CLIENT_RTT, MicroserviceFunction
from repro.workloads.ycsb import OpKind, YcsbWorkload


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment point."""

    model: DDPModel = LIN_SYNCH
    config: ProtocolConfig = MINOS_B
    nodes: int = 5
    records: int = 200
    requests_per_client: int = 80
    clients_per_node: int = 3
    write_fraction: float = 0.5
    distribution: str = "zipfian"
    seed: int = 42
    machine: MachineParams = DEFAULT_MACHINE
    persist_every: Optional[int] = None
    #: Per-write payload size in bytes (None: machine default, 1 KB).
    value_size: Optional[int] = None

    def label(self) -> str:
        return (f"{self.config.name}/{self.model}/n{self.nodes}"
                f"/w{int(self.write_fraction * 100)}")


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment point."""

    config: ExperimentConfig
    write_latency: Summary
    read_latency: Summary
    write_throughput: float
    read_throughput: float
    breakdown: Breakdown
    metrics: Metrics
    #: Mean fraction of host-core time spent computing (0..1).
    host_utilization: float = 0.0

    def row(self) -> Dict[str, object]:
        """A flat dict for table rendering."""
        return {
            "arch": self.config.config.name,
            "model": str(self.config.model),
            "nodes": self.config.nodes,
            "write%": int(self.config.write_fraction * 100),
            "wlat_us": self.write_latency.mean * 1e6,
            "rlat_us": self.read_latency.mean * 1e6,
            "wtput_kops": self.write_throughput / 1e3,
            "rtput_kops": self.read_throughput / 1e3,
        }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build a cluster per *config*, run the YCSB workload, reduce."""
    machine = config.machine.with_nodes(config.nodes)
    cluster = MinosCluster(model=config.model, config=config.config,
                           params=machine)
    workload = YcsbWorkload(records=config.records,
                            requests_per_client=config.requests_per_client,
                            write_fraction=config.write_fraction,
                            distribution=config.distribution,
                            seed=config.seed,
                            persist_every=config.persist_every,
                            value_size=config.value_size)
    metrics = cluster.run_workload(workload,
                                   clients_per_node=config.clients_per_node)
    utilization = 0.0
    if metrics.duration > 0:
        budget = metrics.duration * machine.host.cores
        utilization = sum(node.host.busy_time for node in cluster.nodes
                          ) / (budget * len(cluster.nodes))
    return ExperimentResult(
        config=config,
        write_latency=metrics.write_latency.summary(),
        read_latency=metrics.read_latency.summary(),
        write_throughput=metrics.write_throughput(),
        read_throughput=metrics.read_throughput(),
        breakdown=write_breakdown(metrics),
        metrics=metrics,
        host_utilization=utilization,
    )


def run_microservice(function: MicroserviceFunction,
                     model: DDPModel, config: ProtocolConfig,
                     nodes: int = 16, invocations_per_node: int = 4,
                     clients_per_node: int = 1, seed: int = 42,
                     machine: MachineParams = DEFAULT_MACHINE) -> Summary:
    """End-to-end latency of a DeathStar function (paper §VIII-C).

    Each invocation pays the client↔service datacenter round trip
    (500 µs) and then runs the function's SET/GET sequence through the
    protocol engine of its node.  Returns the end-to-end latency summary.
    """
    cluster = MinosCluster(model=model, config=config,
                           params=machine.with_nodes(nodes))
    cluster.load_records(function.initial_records())
    sim = cluster.sim
    latencies: List[float] = []

    def driver(engine, rng):
        for _i in range(invocations_per_node):
            started = sim.now
            yield sim.timeout(CLIENT_RTT)
            for op in function.invocation(rng):
                if op.kind is OpKind.WRITE:
                    yield from engine.client_write(op.key, op.value,
                                                   scope=op.scope)
                else:
                    yield from engine.client_read(op.key)
            latencies.append(sim.now - started)

    processes = []
    for node in cluster.nodes:
        for client in range(clients_per_node):
            rng = random.Random(f"{seed}/{node.node_id}/{client}")
            processes.append(sim.spawn(
                driver(node.engine, rng),
                name=f"ms.{function.application}.{node.node_id}.{client}"))
    sim.run()
    unfinished = [p.name for p in processes if not p.triggered]
    if unfinished:
        raise ConfigError(f"microservice run deadlocked; unfinished "
                          f"drivers: {unfinished}")
    recorder = LatencyRecorder()
    for value in latencies:
        recorder.add(value)
    return recorder.summary()


def format_table(rows: List[Dict[str, object]],
                 floatfmt: str = "{:.2f}") -> str:
    """Render rows as an aligned text table (the bench output format)."""
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    rendered = [[floatfmt.format(v) if isinstance(v, float) else str(v)
                 for v in row.values()] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rendered))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in rendered]
    return "\n".join(lines)
