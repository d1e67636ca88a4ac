"""Randomized failure-injection (chaos) tests.

Crash and recover nodes, lose, duplicate, delay and partition traffic —
all under write load — and verify that the cluster preserves the
protocol's guarantees throughout.  (The paper — and this reproduction —
leaves mid-transaction coordinator crash recovery to future work, so the
crash chaos here targets follower crashes and post-crash convergence.)

The loss/duplication/partition schedules run through the
:mod:`repro.faults` subsystem (seeded :class:`FaultPlan` + engine
robustness layer) and finish with a full
:class:`~repro.verify.runtime.RuntimeMonitor` invariant pass.
"""

import random

import pytest

from repro import (LIN_SCOPE, LIN_STRICT, LIN_SYNCH, MINOS_B, MINOS_O,
                   MinosCluster)
from repro.core.recovery import RecoveryManager
from repro.faults import (CrashWindow, DisasterSpec, FaultPlan, LinkFaults,
                          Partition, RetransmitPolicy, cascading_crashes,
                          flapping_partition, run_chaos)
from repro.hw.nic import Envelope
from repro.hw.params import DEFAULT_MACHINE, MachineParams, us
from repro.workloads.ycsb import YcsbWorkload

ARCHES = [MINOS_B, MINOS_O]


def build(config, nodes=4):
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=MachineParams(nodes=nodes))
    manager = RecoveryManager(cluster, heartbeat_interval=us(20),
                              timeout=us(100))
    for node in cluster.nodes:
        node.engine.tolerate_stale_acks = True
    cluster.load_records([(f"k{i}", "v0") for i in range(6)])
    return cluster, manager


def alive_converged(cluster, victim):
    survivors = [n for n in cluster.nodes if n.node_id != victim]
    for i in range(6):
        versions = {n.kv.volatile_read(f"k{i}").ts for n in survivors}
        if len(versions) != 1:
            return False
    return True


class TestFollowerCrash:
    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_survivors_converge_despite_crash(self, config, seed):
        cluster, manager = build(config)
        sim = cluster.sim
        rng = random.Random(seed)
        victim = 3  # never coordinates in this test

        def writer(node_id):
            for i in range(10):
                key = f"k{rng.randrange(6)}"
                yield from cluster.nodes[node_id].engine.client_write(
                    key, f"n{node_id}i{i}")

        def chaos():
            yield sim.timeout(us(rng.uniform(5, 40)))
            manager.crash(victim)
            yield sim.timeout(us(rng.uniform(400, 800)))
            manager.recover(victim)

        drivers = [sim.spawn(writer(n)) for n in (0, 1, 2)]
        sim.spawn(chaos())
        sim.run(until=us(10_000))
        assert all(d.triggered for d in drivers), "writers stalled"
        assert alive_converged(cluster, victim)
        # After recovery + catch-up, the victim also converged.
        sim.run(until=sim.now + us(5_000))
        reference = cluster.nodes[0].kv.volatile_read("k0")
        assert cluster.nodes[victim].kv.volatile_read("k0").ts == \
            reference.ts

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_two_follower_crashes(self, config):
        cluster, manager = build(config, nodes=5)
        sim = cluster.sim

        def writer():
            for i in range(8):
                yield from cluster.nodes[0].engine.client_write(
                    f"k{i % 6}", f"i{i}")

        manager.crash(3)
        manager.crash(4)
        driver = sim.spawn(writer())
        sim.run(until=us(8_000))
        assert driver.triggered
        for i in range(6):
            versions = {cluster.nodes[n].kv.volatile_read(f"k{i}").ts
                        for n in (0, 1, 2)}
            assert len(versions) == 1

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_crash_recover_crash_again(self, config):
        cluster, manager = build(config, nodes=3)
        sim = cluster.sim
        manager.crash(2)
        sim.run(until=us(500))
        cluster.write(0, "k0", "round1")
        process = manager.recover(2)
        sim.run(until=sim.now + us(2_000))
        assert process.triggered
        assert cluster.nodes[2].kv.volatile_read("k0").value == "round1"
        manager.crash(2)
        sim.run(until=sim.now + us(500))
        cluster.write(1, "k0", "round2")
        assert cluster.nodes[0].kv.volatile_read("k0").value == "round2"
        assert cluster.nodes[2].kv.volatile_read("k0").value == "round1"


def ycsb(seed, requests=15, write_fraction=0.8):
    return YcsbWorkload(records=30, requests_per_client=requests,
                        write_fraction=write_fraction, seed=seed)


def make_cluster(config, model=LIN_SYNCH, nodes=4):
    return MinosCluster(model=model, config=config,
                        params=DEFAULT_MACHINE.with_nodes(nodes))


class TestLossSchedules:
    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniform_loss_converges(self, config, seed):
        plan = FaultPlan.lossy(seed=seed, drop=0.02)
        result = run_chaos(make_cluster(config), plan, ycsb(seed))
        assert result.completed, "writers stalled under loss"
        assert result.violations == []
        assert result.fault_counters.dropped > 0, "nothing was injected"

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_one_terrible_link(self, config):
        # One directed link loses a third of its traffic; retransmission
        # must push every write through anyway.  VALs are un-acknowledged
        # (blind re-broadcasts only), so their resend budget has to scale
        # with the loss rate for glb convergence.
        plan = FaultPlan(seed=3, links={(0, 2): LinkFaults(drop=0.3)},
                         retransmit=RetransmitPolicy(val_resends=4))
        result = run_chaos(make_cluster(config), plan, ycsb(3))
        assert result.completed
        assert result.violations == []
        assert result.fault_counters.dropped > 0


class TestDuplicationSchedules:
    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_duplicates_are_suppressed(self, config):
        cluster = make_cluster(config)
        plan = FaultPlan.lossy(seed=4, drop=0.0, duplicate=0.2)
        result = run_chaos(cluster, plan, ycsb(4))
        assert result.completed
        assert result.violations == []
        assert result.fault_counters.duplicated > 0
        counters = cluster.metrics.counters
        assert counters.dedup_inv_hits + counters.dedup_ack_hits > 0, \
            "duplicates were injected but never deduplicated"

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_loss_duplication_and_delay_together(self, config):
        plan = FaultPlan.lossy(seed=5, drop=0.02, duplicate=0.05,
                               delay=0.05)
        result = run_chaos(make_cluster(config), plan, ycsb(5))
        assert result.completed
        assert result.violations == []


class TestPartitionSchedules:
    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_short_partition_is_bridged_by_retransmission(self, config):
        # The cut heals before the failure detector's timeout, so no node
        # is excluded: retransmissions alone must carry writes across.
        plan = FaultPlan(seed=6, partitions=(
            Partition(start=us(40), end=us(110),
                      group_a=frozenset({0, 1}),
                      group_b=frozenset({2, 3})),))
        cluster = make_cluster(config)
        result = run_chaos(cluster, plan, ycsb(6, requests=10),
                           detect_timeout=us(150))
        assert result.completed
        assert result.violations == []
        assert result.fault_counters.partition_drops > 0
        assert result.detections == 0, \
            "partition outlived the failure-detection timeout"

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_repeated_partitions(self, config):
        plan = FaultPlan(seed=7, partitions=(
            Partition(start=us(30), end=us(80),
                      group_a=frozenset({0}), group_b=frozenset({3})),
            Partition(start=us(200), end=us(260),
                      group_a=frozenset({1, 2}), group_b=frozenset({3})),
        ))
        result = run_chaos(make_cluster(config), plan,
                           ycsb(7, requests=10), detect_timeout=us(150))
        assert result.completed
        assert result.violations == []


class TestCrashDropsQueuedTraffic:
    """Regression: MinosCluster.crash must drop everything queued in the
    victim's mailboxes — a crashed machine neither keeps transmitting
    envelopes its host deposited before dying, nor processes traffic
    that arrived while it was down."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_deposited_envelopes_die_with_the_node(self, config):
        cluster = make_cluster(config, nodes=2)
        received = []
        cluster.nodes[1].engine.control_handler = received.append
        node = cluster.nodes[0]
        total = 20
        for i in range(total):
            if node.snic is not None:
                node.snic.send_message(1, f"pre-crash-{i}", 64)
            else:
                node.nic.host_deposit(Envelope(payload=f"pre-crash-{i}",
                                               size_bytes=64, src_node=0,
                                               dst=1))
        # Let the backlog reach the device's queues, then pull the plug
        # with most of it still untransmitted.
        cluster.sim.run(until=us(2))
        dropped = cluster.crash(0)
        assert dropped >= 1, "crash did not drain the queued envelopes"
        cluster.restore(0)
        cluster.sim.run(until=us(2_000))
        assert len(received) < total, \
            "a crashed node transmitted its whole pre-crash backlog"
        assert len(received) + dropped <= total

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    def test_traffic_arriving_while_down_is_not_replayed(self, config):
        cluster = make_cluster(config, nodes=2)
        received = []
        cluster.nodes[1].engine.control_handler = received.append
        cluster.crash(1)
        node = cluster.nodes[0]
        if node.snic is not None:
            node.snic.send_message(1, "while-down", 64)
        else:
            node.nic.host_deposit(Envelope(payload="while-down",
                                           size_bytes=64, src_node=0,
                                           dst=1))
        cluster.sim.run(until=us(500))
        cluster.restore(1)
        cluster.sim.run(until=us(1_500))
        assert received == [], \
            "a restarted node processed traffic that arrived while down"


class TestAcceptance:
    """The PR's acceptance scenario: a seeded 1% loss schedule plus a
    mid-run follower crash/restart, driven by a write-heavy YCSB mix on
    both persistency models and both architectures.  Every write must
    complete and be durable, and the runtime monitor must find zero
    invariant violations."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", [LIN_SYNCH, LIN_STRICT],
                             ids=lambda m: m.name)
    def test_loss_plus_crash_restart(self, config, model):
        plan = FaultPlan.lossy(
            seed=42, drop=0.01,
            crashes=(CrashWindow(node=3, at=us(100), restore_at=us(600)),))
        cluster = make_cluster(config, model=model)
        workload = ycsb(42, requests=20, write_fraction=0.8)
        result = run_chaos(cluster, plan, workload, clients_per_node=2)
        assert result.completed, "workload stalled under faults"
        assert result.violations == [], result.violations
        assert result.checks == "quiescent"
        assert result.rejoins == 1
        counters = cluster.metrics.counters
        # 3 client nodes x 2 clients x 20 requests, 80% writes.
        expected_writes = sum(
            1 for node_id in (0, 1, 2) for client in range(2)
            for op in workload.ops_for(node_id, client)
            if op.kind.name == "WRITE")
        # Superseded writes finish through the outdated-writes path and
        # are tallied separately; every issued write must land in one of
        # the two buckets.
        assert (counters.writes_completed +
                counters.writes_obsolete) == expected_writes
        assert result.fault_counters.dropped > 0
        assert counters.inv_retransmits > 0, \
            "loss was injected but no retransmission was needed?"


class TestDurableLinearizability:
    """Post-recovery reads never observe values the
    durable-linearizability rules forbid (ISSUE 5 satellite).

    ``run_check`` crashes a follower mid-workload, snapshots its NVM at
    the crash instant, recovers it, and then checks the durability
    floor/validity rules plus probe reads on every alive node — per
    persistency model.  This is the implementation-level counterpart of
    the runtime monitor's invariant pass above."""

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize(
        "model", ["synch", "strict", "renf", "event", "scope"])
    def test_post_recovery_reads_respect_durability_rules(self, config,
                                                          model):
        from repro.check import run_check

        report = run_check(model=model, config=config, nodes=3,
                           ops_per_client=10, seeds=1,
                           crash_points="uniform", crash_trials=1)
        crashed = [run for run in report.runs
                   if run.crash_at is not None]
        assert crashed, "no crash/recover schedule was explored"
        assert report.ok, (report.counterexample.detail
                           if report.counterexample else report.to_dict())
        assert all(run.durability_ok and run.linearizable
                   for run in report.runs)


class TestDisasterMatrix:
    """Cascading failures, flapping partitions, and rollback under
    load, across {Synch, Scope} x {MINOS-B, MINOS-O}.  Every recovery
    path exercised here restores from the surviving NVM logs."""

    MODELS = [LIN_SYNCH, LIN_SCOPE]

    @staticmethod
    def workload(model, seed):
        return YcsbWorkload(
            records=12, requests_per_client=12, write_fraction=0.8,
            seed=seed,
            persist_every=3 if model.uses_scopes else None)

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_cascading_failures(self, config, model):
        """Nodes 3 and 4 crash 150us apart — the second crash lands
        while the cluster is still absorbing the first — and each
        rejoins while the other writers keep logging."""
        plan = FaultPlan.lossy(
            seed=31, drop=0.005,
            crashes=cascading_crashes((3, 4), at=us(100),
                                      stagger=us(150), down_for=us(600)))
        cluster = make_cluster(config, model=model, nodes=5)
        result = run_chaos(cluster, plan, self.workload(model, 31),
                           clients_per_node=1)
        assert result.completed, "writers stalled through the cascade"
        assert result.violations == [], result.violations
        assert result.checks == "quiescent"
        assert result.rejoins == 2

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_flapping_partition(self, config, model):
        """A link cut that heals and re-opens four times: retransmit
        timers keep firing into a fabric that works just often enough
        to half-deliver."""
        # Each cut (60us) heals before the detector's 150us timeout and
        # inside the retransmit backoff horizon, mirroring
        # TestPartitionSchedules: the flaps stress retry logic, not the
        # exclusion machinery.
        plan = FaultPlan(
            seed=37,
            partitions=flapping_partition((0, 1), (2, 3), start=us(80),
                                          period=us(120), flaps=4))
        cluster = make_cluster(config, model=model)
        result = run_chaos(cluster, plan, self.workload(model, 37),
                           clients_per_node=1, detect_timeout=us(150))
        assert result.completed, "writers stalled across the flaps"
        assert result.violations == [], result.violations
        assert result.checks == "quiescent"

    @pytest.mark.parametrize("config", ARCHES, ids=lambda c: c.name)
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_restore_under_load(self, config, model):
        """A two-node disaster mid-run: the victims are rolled back to
        the restore line their NVM logs hold while the surviving
        clients keep issuing, then the whole cluster must converge and
        pass the quiescent invariant suite."""
        plan = FaultPlan.lossy(seed=41, drop=0.005)
        cluster = make_cluster(config, model=model, nodes=5)
        result = run_chaos(
            cluster, plan, self.workload(model, 41), clients_per_node=1,
            disaster=DisasterSpec(at=us(450), victims=2,
                                  down_for=us(500)))
        assert result.completed, "surviving clients stalled"
        assert result.violations == [], result.violations
        assert result.checks == "quiescent"
        assert result.restored == 2
