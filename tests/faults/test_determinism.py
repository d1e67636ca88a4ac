"""End-to-end determinism guarantees of the fault subsystem.

Two regressions are pinned here:

* the same seed + plan reproduces a chaotic run *exactly* — fault and
  robustness instant for instant, counter for counter, byte for byte of
  final state;
* installing a quiescent plan (no fault rates, no blind VAL re-sends)
  leaves the protocol's observable behavior identical to a run with no
  fault subsystem at all — the robustness timers arm but never fire a
  resend, so latencies match exactly.
"""

from repro import LIN_STRICT, LIN_SYNCH, MINOS_B, MINOS_O, MinosCluster
from repro.faults import (CrashWindow, FaultPlan, LinkFaults,
                          RetransmitPolicy, run_chaos)
from repro.hw.params import DEFAULT_MACHINE, us
from repro.workloads.ycsb import YcsbWorkload


#: The robustness layer's obs instants (beside the ``fault.*`` ones).
ROBUSTNESS_INSTANTS = {"duplicate_suppressed", "retransmit_give_up",
                       "val_rebroadcast"}


def chaotic_run(config, seed):
    plan = FaultPlan.lossy(
        seed=seed, drop=0.02, duplicate=0.02,
        crashes=(CrashWindow(node=3, at=us(80), restore_at=us(500)),))
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=DEFAULT_MACHINE.with_nodes(4))
    obs = cluster.attach_obs()
    workload = YcsbWorkload(records=20, requests_per_client=10,
                            write_fraction=0.8, seed=seed)
    result = run_chaos(cluster, plan, workload, clients_per_node=1)
    state = {(node.node_id, key): node.kv.volatile_read(key).ts
             for node in cluster.nodes
             for key in node.kv.metadata.keys()}
    # write_ids are allocated from a process-global counter, so two runs
    # in one process produce the same writes with offset ids — mask them.
    def masked(instant):
        return (instant.time, instant.node, instant.name,
                tuple(attr for attr in instant.attrs
                      if attr[0] != "write_id"))

    return {
        "traces": [masked(instant) for instant in obs.instants
                   if instant.name.startswith("fault.")
                   or instant.name in ROBUSTNESS_INSTANTS],
        "fault_counters": result.fault_counters.to_dict(),
        "latencies": cluster.metrics.write_latency.samples,
        "state": state,
        "ok": result.ok,
    }


class TestSameSeedSameRun:
    def test_chaotic_runs_are_bit_identical(self):
        for config in (MINOS_B, MINOS_O):
            first = chaotic_run(config, seed=11)
            second = chaotic_run(config, seed=11)
            assert first["fault_counters"] == second["fault_counters"]
            assert first["traces"] == second["traces"]
            assert first["latencies"] == second["latencies"]
            assert first["state"] == second["state"]
            assert first["fault_counters"]["dropped"] > 0, \
                "plan injected nothing — the test is vacuous"

    def test_different_seed_changes_the_run(self):
        a = chaotic_run(MINOS_B, seed=11)
        b = chaotic_run(MINOS_B, seed=12)
        assert a["fault_counters"] != b["fault_counters"] or \
            a["traces"] != b["traces"]


def plain_latencies(model, config, enable_quiet_plan):
    cluster = MinosCluster(model=model, config=config,
                           params=DEFAULT_MACHINE.with_nodes(4))
    if enable_quiet_plan:
        injector = cluster.enable_faults(FaultPlan(
            default=LinkFaults(),
            retransmit=RetransmitPolicy(val_resends=0)))
    workload = YcsbWorkload(records=20, requests_per_client=12,
                            write_fraction=0.6, seed=7)
    metrics = cluster.run_workload(workload, clients_per_node=2)
    if enable_quiet_plan:
        assert injector.counters.faults() == 0
        assert metrics.counters.inv_retransmits == 0
        assert metrics.counters.val_rebroadcasts == 0
        assert metrics.counters.dedup_inv_hits == 0
        assert metrics.counters.dedup_ack_hits == 0
    return (metrics.write_latency.samples, metrics.read_latency.samples)


class TestQuietPlanIsTransparent:
    def test_latencies_identical_to_uninstrumented_run(self):
        for model in (LIN_SYNCH, LIN_STRICT):
            for config in (MINOS_B, MINOS_O):
                bare = plain_latencies(model, config, False)
                quiet = plain_latencies(model, config, True)
                assert bare == quiet, (
                    f"{config.name}/{model.name}: a no-fault plan "
                    "perturbed the protocol's timing")
