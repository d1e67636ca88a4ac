"""The unbounded-log fix, end to end (regression).

Before checkpointing, ``NvmLog`` grew without bound: nothing ever
truncated it, so a long chaos soak left every node holding its entire
write history in "NVM".  The CIC watermark is the fix — once the live
log crosses it, a local fence folds the prefix into the checkpoint
image and truncates.  This regression pins the bound: a chaos soak
with a watermark keeps every node's *peak* log length within a small
slack of the watermark, while the identical soak without checkpoints
blows straight past it.

Under concurrent load (three closed-loop clients per node) only the
strong models keep that bound.  Under ⟨Lin,REnf⟩, ⟨Lin,Event⟩ and
⟨Lin,Scope⟩ the peak live log overshoots the watermark — by up to about
3x on MINOS-B and 7x on MINOS-O — while still staying far below the
unbounded control (see ``docs/checkpointing.md``).
"""

import functools

import pytest

from repro import (LIN_EVENT, LIN_RENF, LIN_SCOPE, LIN_STRICT, LIN_SYNCH,
                   MINOS_B, MINOS_O, MinosCluster)
from repro.ckpt import CheckpointConfig
from repro.faults import FaultPlan, run_chaos
from repro.hw.params import DEFAULT_MACHINE
from repro.workloads.ycsb import YcsbWorkload

WATERMARK = 8
#: A fence runs after the append that crosses the watermark, so a
#: burst of in-flight appends can overshoot by the amount the fabric
#: can land between the crossing and the fence.
SLACK = 4


def soak(config, checkpoints=None):
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=DEFAULT_MACHINE.with_nodes(3))
    plan = FaultPlan.lossy(seed=23, drop=0.005, delay=0.05)
    workload = YcsbWorkload(records=10, requests_per_client=40,
                            write_fraction=0.9, seed=23)
    result = run_chaos(cluster, plan, workload, clients_per_node=1,
                       checkpoints=checkpoints)
    assert result.completed
    assert result.violations == [], result.violations
    return result, cluster


class TestBoundedLog:
    def test_watermark_bounds_peak_log_length_on_chaos_soak(self):
        for config in (MINOS_B, MINOS_O):
            result, cluster = soak(
                config, CheckpointConfig(watermark=WATERMARK))
            assert result.peak_log_length <= WATERMARK + SLACK, (
                f"{config.name}: peak live log "
                f"{result.peak_log_length} ran past the "
                f"{WATERMARK}-entry watermark")
            for node in cluster.nodes:
                assert node.kv.log.peak_length <= WATERMARK + SLACK

    def test_no_checkpoints_is_unbounded(self):
        """Control with teeth: the same soak without checkpointing
        accumulates far more than the watermark on every node — the
        bound above is the fix, not a property of the workload."""
        result, cluster = soak(MINOS_B)
        assert result.peak_log_length > WATERMARK + SLACK
        for node in cluster.nodes:
            assert node.kv.log.truncated_total == 0
            assert len(node.kv.log) == node.kv.log.peak_length


#: Peak-log bounds under load at watermark 8, per (model, arch).  84
#: hash seeds (``kv/hashtable.py`` probes with builtin ``hash()``) gave
#: REnf 14-25 (B) / 18-53 (O) and Event = Scope 13-19 (B) / 15-53 (O);
#: each bound sits just above its maximum.
LOADED_BOUNDS = {
    (LIN_RENF, MINOS_B): 28, (LIN_RENF, MINOS_O): 60,
    (LIN_EVENT, MINOS_B): 22, (LIN_EVENT, MINOS_O): 60,
    (LIN_SCOPE, MINOS_B): 22, (LIN_SCOPE, MINOS_O): 60,
}


def loaded_peak(model, config, checkpoints=None):
    """Peak live log of a 3-node x 3-client, 50 %-write closed-loop run."""
    cluster = MinosCluster(model=model, config=config,
                           params=DEFAULT_MACHINE.with_nodes(3))
    if checkpoints is not None:
        cluster.enable_checkpoints(checkpoints)
    workload = YcsbWorkload(records=200, requests_per_client=40,
                            write_fraction=0.5, seed=42)
    cluster.run_workload(workload, clients_per_node=3)
    return max(node.kv.log.peak_length for node in cluster.nodes)


@functools.lru_cache(maxsize=None)
def unbounded_peak(config):
    """The loaded run without checkpoints: nothing truncates, so every
    node's log holds all the writes it applied, whatever the model."""
    return loaded_peak(LIN_SYNCH, config)


ARCHES = pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                                 ids=["MINOS-B", "MINOS-O"])


class TestBoundedLogUnderLoad:
    @ARCHES
    @pytest.mark.parametrize("model", [LIN_SYNCH, LIN_STRICT],
                             ids=["synch", "strict"])
    def test_strong_models_keep_the_watermark(self, model, config):
        peak = loaded_peak(model, config,
                           CheckpointConfig(watermark=WATERMARK))
        assert peak <= WATERMARK + SLACK

    @ARCHES
    @pytest.mark.parametrize("model", [LIN_RENF, LIN_EVENT, LIN_SCOPE],
                             ids=["renf", "event", "scope"])
    def test_weak_models_overshoot_within_their_bound(self, model, config):
        peak = loaded_peak(model, config,
                           CheckpointConfig(watermark=WATERMARK))
        assert peak <= LOADED_BOUNDS[model, config]
        assert 2 * peak < unbounded_peak(config)
