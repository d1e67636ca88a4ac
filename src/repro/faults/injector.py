"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to packets as the fabric schedules their delivery.

The injector hangs off every network :class:`~repro.sim.network.Port`
(installed via :meth:`repro.sim.network.Network.install_fault_injector`);
``Port._deliver`` consults it once per packet.  Determinism: each
directed link owns a private :class:`random.Random` seeded from
``(plan.seed, src, dst)``, and draws happen in delivery order — which the
single-threaded calendar already makes deterministic — so the same seed
and plan always produce the same faults, and a run with no injector
installed never draws at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import CrashWindow, FaultPlan, crash_schedule
from repro.sim.network import Packet


@dataclass
class FaultCounters:
    """What the injector actually did (for tests, the CLI, reports)."""

    inspected: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    partition_drops: int = 0

    def faults(self) -> int:
        return (self.dropped + self.duplicated + self.delayed +
                self.reordered + self.partition_drops)

    def to_dict(self) -> Dict[str, int]:
        return {
            "inspected": self.inspected,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "partition_drops": self.partition_drops,
        }


def _endpoint_node(name: str) -> Optional[int]:
    """Parse the node id out of a fabric endpoint name (``nic<N>``)."""
    if name.startswith("nic"):
        suffix = name[3:]
        if suffix.isdigit():
            return int(suffix)
    return None


class FaultInjector:
    """Applies one :class:`FaultPlan` to a simulation's fabric traffic."""

    def __init__(self, sim, plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self.counters = FaultCounters()
        #: Optional :class:`repro.obs.Observability`; set by
        #: ``MinosCluster.attach_obs`` / ``enable_faults``.  Fault
        #: decisions become ``fault.*`` instants plus fabric counters;
        #: guarded at every emit site, so recording off costs one
        #: attribute check.
        self.obs = None
        self._rngs: Dict[Tuple[str, str], random.Random] = {}

    # -- determinism plumbing ------------------------------------------------

    def _rng(self, src: str, dst: str) -> random.Random:
        rng = self._rngs.get((src, dst))
        if rng is None:
            rng = random.Random(f"faultplan:{self.plan.seed}:{src}->{dst}")
            self._rngs[(src, dst)] = rng
        return rng

    def _fault(self, node: int, name: str, packet: Packet,
               **details) -> None:
        if self.obs is not None:
            write_id = getattr(packet.payload, "write_id", None)
            self.obs.fault(node, name, src=packet.src, dst=packet.dst,
                           kind=packet.kind, write_id=write_id, **details)

    # -- the Port._deliver hook ------------------------------------------------

    def deliveries(self, packet: Packet,
                   when: float) -> List[Tuple[Packet, float]]:
        """Which copies of *packet* arrive, and when.

        Returns ``[]`` for a dropped packet, one entry for normal (or
        delayed) delivery, two for a duplicated packet.
        """
        self.counters.inspected += 1
        src_node = _endpoint_node(packet.src)
        dst_node = _endpoint_node(packet.dst)
        if src_node is None or dst_node is None:
            return [(packet, when)]  # not an inter-node link: no faults
        if self.plan.partitioned(src_node, dst_node, when):
            self.counters.partition_drops += 1
            self._fault(dst_node, "partition_drop", packet)
            return []
        link = self.plan.link(src_node, dst_node)
        if not link.active:
            return [(packet, when)]
        rng = self._rng(packet.src, packet.dst)
        if rng.random() < link.drop:
            self.counters.dropped += 1
            self._fault(dst_node, "drop", packet)
            return []
        arrival = when
        if link.delay > 0 and rng.random() < link.delay:
            self.counters.delayed += 1
            arrival = when + link.delay_s
            self._fault(dst_node, "delay", packet, extra_s=link.delay_s)
        if link.reorder > 0 and rng.random() < link.reorder:
            self.counters.reordered += 1
            arrival = arrival + link.reorder_s
            self._fault(dst_node, "reorder", packet,
                        extra_s=link.reorder_s)
        out = [(packet, arrival)]
        if link.duplicate > 0 and rng.random() < link.duplicate:
            self.counters.duplicated += 1
            self._fault(dst_node, "duplicate", packet)
            out.append((packet.clone(), arrival))
        return out

    # -- crash schedule ---------------------------------------------------------

    def schedule_crashes(self, cluster, manager=None) -> List:
        """Spawn one driver process per :class:`CrashWindow` in the plan.

        With a :class:`~repro.core.recovery.RecoveryManager` the restart
        goes through the full rejoin/catch-up exchange; without one the
        node merely resumes (``cluster.restore``).
        """
        processes = []
        for window in crash_schedule(self.plan):
            processes.append(self.sim.spawn(
                self._crash_driver(cluster, manager, window),
                name=f"chaos.crash.n{window.node}"))
        return processes

    def _crash_driver(self, cluster, manager, window: CrashWindow):
        yield self.sim.timeout(window.at - self.sim.now)
        cluster.crash(window.node)
        if self.obs is not None:
            self.obs.fault(window.node, "crash")
        if window.restore_at is None:
            return
        yield self.sim.timeout(window.restore_at - self.sim.now)
        if manager is not None:
            manager.recover(window.node)
        else:
            cluster.restore(window.node)
        if self.obs is not None:
            self.obs.fault(window.node, "restart")
