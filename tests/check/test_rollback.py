"""Rollback recovery acceptance: k-node and whole-cluster crashes.

A whole-cluster crash at an arbitrary explored crash point must restore
from the surviving NVM logs to a state that passes the rollback rules
(``rollback-floor`` and ``rollback-validity``) and durable
linearizability for all five persistency models on both architectures —
and a k-node disaster under an active fault plan must roll back and
converge while the surviving clients stay under load.

The mutant gate at the end is what makes those passes worth trusting:
NVM-log bugs planted through ``run_check(setup=...)`` must each trip the
rule they violate, while the identical exploration on an honest log
stays green.
"""

import pytest

from repro import (LIN_SCOPE, LIN_SYNCH, MINOS_B, MINOS_O, MinosCluster,
                   run_check)
from repro.faults import DisasterSpec, FaultPlan
from repro.hw.params import DEFAULT_MACHINE, us
from repro.kv.log import LogEntry
from repro.workloads.ycsb import YcsbWorkload

ARCHES = [MINOS_B, MINOS_O]
MODELS = ["synch", "strict", "renf", "event", "scope"]


class TestWholeClusterRollback:
    """run_check in disaster mode with victims == nodes: every node
    crashes at the explored crash point, rollback recovery restores the
    cluster from the surviving NVM logs, and the history must pass
    check_rollback + linearizability."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", MODELS)
    def test_restores_to_legal_state(self, model, config):
        report = run_check(model=model, config=config, nodes=3,
                           ops_per_client=6, seeds=1, crash_trials=1,
                           victims=3, max_time=us(30_000))
        crashed = [run for run in report.runs if run.crash_at is not None]
        assert crashed, "no whole-cluster crash was explored"
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())
        assert all(run.durability_ok and run.linearizable
                   for run in report.runs)

    def test_offload_whole_cluster_crash_with_every_peer_excluded(self):
        """MINOS-O under <Lin, Synch>: with every peer excluded, a
        coordinator's VAL broadcast has no destinations; the SmartNIC
        sends nothing instead of aborting the run."""
        report = run_check(model="synch", config=MINOS_O, nodes=3,
                           ops_per_client=8, seeds=1, crash_trials=2,
                           victims=3, max_time=us(30_000))
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())

    def test_k_node_subset_rollback(self):
        """victims strictly between 1 and nodes exercises the mixed
        path: crashed nodes rebuilt, survivors topped up to the line."""
        report = run_check(model="synch", config=MINOS_B, nodes=4,
                           ops_per_client=6, seeds=1, crash_trials=1,
                           victims=2, max_time=us(30_000))
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())

    def test_rejects_more_victims_than_nodes(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            run_check(nodes=3, victims=4)


class TestDisasterUnderFaultPlan:
    """k-node rollback with an active FaultPlan: loss + delay keep the
    retransmit machinery busy while the disaster hits, and the restored
    cluster must still pass the quiescent invariant suite."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", [LIN_SYNCH, LIN_SCOPE],
                             ids=lambda m: m.name)
    def test_rollback_under_loss(self, config, model):
        from repro.faults import run_chaos

        plan = FaultPlan.lossy(seed=11, drop=0.01, delay=0.05)
        cluster = MinosCluster(model=model, config=config,
                               params=DEFAULT_MACHINE.with_nodes(5))
        workload = YcsbWorkload(records=12, requests_per_client=12,
                                write_fraction=0.8, seed=11)
        result = run_chaos(
            cluster, plan, workload, clients_per_node=1,
            disaster=DisasterSpec(at=us(500), victims=2,
                                  down_for=us(400)))
        assert result.completed, "surviving clients stalled"
        assert result.violations == [], result.violations
        assert result.restored == 2
        assert result.checks == "quiescent"


def _plant_append(cluster, corrupt, nodes=None):
    """Wrap ``NvmLog.append`` on the chosen nodes (default: all) with
    *corrupt*, which gets the real append and its arguments."""
    for node in cluster.nodes:
        if nodes is not None and node.node_id not in nodes:
            continue
        log = node.kv.log

        def append(key, ts, value, scope=None, real=log.append):
            return corrupt(real, key, ts, value, scope)

        log.append = append


def plant_synch_losing_log(cluster):
    """Every node's log silently loses ``k1``'s entries: an acked Synch
    write has no durable copy anywhere."""
    def corrupt(real, key, ts, value, scope):
        if key == "k1":
            return LogEntry(key=key, ts=ts, value=value, scope=scope)
        return real(key, ts, value, scope)

    _plant_append(cluster, corrupt)


def plant_scope_losing_log(cluster):
    """Every node's log silently loses scoped entries, so a completed
    ``[PERSIST]sc`` promised durability for writes no NVM holds."""
    def corrupt(real, key, ts, value, scope):
        if scope is not None:
            return LogEntry(key=key, ts=ts, value=value, scope=scope)
        return real(key, ts, value, scope)

    _plant_append(cluster, corrupt)


def plant_forging_log(cluster):
    """Node 0's log stores a value no client wrote for ``k1`` (a torn
    NVM write): the version survives, its payload does not."""
    def corrupt(real, key, ts, value, scope):
        if key == "k1":
            value = "forged"
        return real(key, ts, value, scope)

    _plant_append(cluster, corrupt, nodes={0})


CHECK = dict(config=MINOS_B, nodes=3, ops_per_client=10, seeds=2,
             crash_trials=2, victims=3, max_time=us(60_000))


class TestNvmLogMutants:
    def test_synch_entry_lost_from_every_log_is_caught(self):
        report = run_check(model="synch", setup=plant_synch_losing_log,
                           **CHECK)
        assert not report.ok, \
            "a log that loses an acked Synch write went unnoticed"
        counterexample = report.counterexample
        assert counterexample is not None
        assert counterexample.kind == "durability"
        assert "rollback-floor" in counterexample.detail
        assert counterexample.key == "k1"
        # The shrunk counterexample is tiny.
        assert 1 <= len(counterexample.events) <= 10
        # The evidence is the acked write the rollback lost.
        assert any(e["kind"] == "write" for e in counterexample.events)

    def test_scoped_entries_lost_from_every_log_are_caught(self):
        report = run_check(model="scope", setup=plant_scope_losing_log,
                           **CHECK)
        assert not report.ok, \
            "a log that loses scoped entries went unnoticed"
        counterexample = report.counterexample
        assert counterexample is not None
        assert counterexample.kind == "durability"
        assert "rollback-floor" in counterexample.detail
        assert 1 <= len(counterexample.events) <= 10
        # The Scope floor's evidence pairs the lost write with the
        # [PERSIST]sc that promised it durable.
        kinds = {e["kind"] for e in counterexample.events}
        assert "persist" in kinds

    def test_forged_log_value_is_caught(self):
        report = run_check(model="synch", setup=plant_forging_log,
                           **CHECK)
        assert not report.ok, \
            "a log entry holding a value no client wrote went unnoticed"
        counterexample = report.counterexample
        assert counterexample is not None
        assert counterexample.kind == "durability"
        assert "rollback-validity" in counterexample.detail
        assert counterexample.key == "k1"
        # No event count is asserted: validity names the surviving
        # entry, not a history operation, so its evidence may be empty.

    def test_clean_logs_pass_the_same_gate(self):
        """Control: the identical exploration on honest logs is green —
        the mutants above fail because of the planted bug, not because
        the gate is trigger-happy."""
        report = run_check(model="synch", **CHECK)
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())
