"""Tests for the runtime invariant monitor (real-engine checking)."""

import pytest

from repro import (ALL_MODELS, LIN_SYNCH, MINOS_B, MINOS_O, MinosCluster,
                   YcsbWorkload)
from repro.core.timestamp import Timestamp
from repro.errors import VerificationError
from repro.hw.params import MachineParams
from repro.verify import RuntimeMonitor

ARCHES = [MINOS_B, MINOS_O]


class TestCleanRuns:
    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_workload_run_satisfies_all_invariants(self, config, model):
        cluster = MinosCluster(model=model, config=config,
                               params=MachineParams(nodes=3))
        monitor = RuntimeMonitor(cluster)
        workload = YcsbWorkload(records=30, requests_per_client=15,
                                write_fraction=0.6, seed=17)
        cluster.run_workload(workload, clients_per_node=2)
        cluster.sim.run()  # drain background persists / drains
        monitor.check_quiescent()
        assert monitor.checks_run == 4


class TestViolationDetection:
    def _quiesced_cluster(self):
        cluster = MinosCluster(model=LIN_SYNCH, config=MINOS_B,
                               params=MachineParams(nodes=2))
        cluster.load_records([("k", "v0")])
        cluster.write(0, "k", "v1")
        cluster.sim.run()
        return cluster

    def test_detects_divergent_replica(self):
        cluster = self._quiesced_cluster()
        # Corrupt one replica behind the protocol's back.
        cluster.nodes[1].kv.table.put(
            "k", type(cluster.nodes[1].kv.volatile_read("k"))(
                "corrupted", Timestamp(9, 9)))
        with pytest.raises(VerificationError, match="disagreement"):
            RuntimeMonitor(cluster).check_agreement()

    def test_detects_glb_ahead(self):
        cluster = self._quiesced_cluster()
        cluster.nodes[0].kv.meta("k").glb_volatile_ts = Timestamp(99, 0)
        with pytest.raises(VerificationError, match="ahead"):
            RuntimeMonitor(cluster).check_glb_not_ahead()

    def test_detects_leaked_lock(self):
        cluster = self._quiesced_cluster()
        cluster.nodes[1].kv.meta("k").rdlock_owner = Timestamp(1, 0)
        with pytest.raises(VerificationError, match="RDLock"):
            RuntimeMonitor(cluster).check_locks_released()

    def test_detects_lost_durability(self):
        cluster = self._quiesced_cluster()
        kv = cluster.nodes[0].kv
        kv.table.put("k", type(kv.volatile_read("k"))(
            "never-persisted", Timestamp(5, 0)))
        kv.meta("k").set_volatile(Timestamp(5, 0))
        with pytest.raises(VerificationError, match="durable"):
            RuntimeMonitor(cluster).check_durability()
