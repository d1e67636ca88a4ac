"""What the ledger runs and what it reports — pure data, no imports of
the system under test, so the parent process and the tests can read it
without paying for (or depending on) ``import repro``.

``BENCHMARK.json`` at the repository root is the driver-facing copy of
the names below; ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

SCHEMA = "minos-ledger/1"

#: name -> parameters of one repeat.  All workloads are closed-loop,
#: single process, single thread; ``why`` lives in BENCHMARK.json.
WORKLOADS = {
    "ycsb-b-w50": dict(kind="ycsb", arch="MINOS-B", model="synch", nodes=5,
                       clients=3, requests=800, records=200,
                       write_fraction=0.5),
    "ycsb-o-w50": dict(kind="ycsb", arch="MINOS-O", model="synch", nodes=5,
                       clients=3, requests=800, records=200,
                       write_fraction=0.5),
    "ycsb-b-r100": dict(kind="ycsb", arch="MINOS-B", model="synch", nodes=5,
                        clients=3, requests=16_000, records=200,
                        write_fraction=0.0),
    "check-o-scope": dict(kind="check", arch="MINOS-O", model="scope",
                          nodes=3, ops_per_client=16, seeds=24),
}


def sized(name: str, quick: bool) -> dict:
    """Parameters of workload *name*; ``quick`` shrinks a repeat about
    tenfold (smoke tests only — its numbers are not comparable)."""
    params = dict(WORKLOADS[name])
    if quick:
        if params["kind"] == "ycsb":
            params["requests"] //= 10
        else:
            params["seeds"] = 2
    return params


#: Layers of the outside-in table, in reading order.  ``layers.py`` maps
#: every profiled code object to exactly one of them.
LAYERS = (
    "sim.kernel", "sim.process", "sim.events", "sim.resources",
    "sim.network", "hw.nic", "hw.smartnic", "hw.host", "hw.memory",
    "core.engine", "core.baseline", "core.offload", "core.compiled",
    "core.meta", "core.recovery", "kv", "cluster", "workloads", "metrics",
    "obs", "faults", "check", "ckpt", "compile", "other",
)

#: (name, unit, better) of the end-to-end metrics: host time and host
#: memory, measured with tracing off.
END_TO_END = (
    ("ops_per_s", "ops/s", "higher"),
    ("ops_per_mloop", "ops/Mloop", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Simulated-time results.  They repeat exactly under a fixed seed and
#: the pinned hash seed, so `compare` demands identity, not a bound.
SIM_METRICS = (
    ("sim_write_p50_us", "us", "lower"),
    ("sim_write_p99_us", "us", "lower"),
    ("sim_read_p50_us", "us", "lower"),
    ("sim_read_p99_us", "us", "lower"),
    ("sim_kops_per_s", "kops/s", "higher"),
)

#: Counts of modelled traffic.  A simulator speed-up must not move them.
FIDELITY_COUNTS = (
    ("net.packets_per_op", "1/op", "lower"),
    ("net.bytes_per_op", "B/op", "lower"),
    ("nic.msgs_sent_per_op", "1/op", "lower"),
    ("nic.msgs_recv_per_op", "1/op", "lower"),
    ("snic.vfifo_skips_per_kop", "1/kop", "lower"),
    ("core.invs_per_write", "1/write", "lower"),
    ("core.acks_per_write", "1/write", "lower"),
    ("core.vals_per_write", "1/write", "lower"),
    ("core.obsolete_write_share", "fraction", "lower"),
    ("core.read_stalls_per_kop", "1/kop", "lower"),
    ("core.rdlock_snatches_per_kop", "1/kop", "lower"),
    ("core.retransmits_per_kop", "1/kop", "lower"),
    ("core.dedup_hits_per_kop", "1/kop", "lower"),
    ("kv.probes_per_op", "1/op", "lower"),
    ("kv.log_appends_per_write", "1/write", "lower"),
    ("kv.log_peak_len", "count", "lower"),
    ("hw.nvm_ops_per_write", "1/write", "lower"),
    ("hw.host_utilization", "fraction", "lower"),
    ("check.schedules", "count", "higher"),
    ("check.wgl_states_per_op", "1/op", "lower"),
)

#: Counts of simulator work per client op — the lever ROADMAP item 2
#: pulls.  Exact, but allowed (meant) to fall.
WORK_COUNTS = (
    ("sim.events_per_op", "1/op", "lower"),
    ("sim.sleeps_per_op", "1/op", "lower"),
    ("sim.resumes_per_op", "1/op", "lower"),
    ("sim.spawns_per_op", "1/op", "lower"),
)

#: Host-time measurements of the traced run; informational.
HOST_LAYER_TIMES = (
    ("obs.share_of_wall", "fraction", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.first_build_s", "s", "lower"),
    ("setup.warm_build_s", "s", "lower"),
    ("setup.load_s", "s", "lower"),
    ("probe.sim_events_per_s", "1/s", "higher"),
    ("probe.net_msgs_per_s", "1/s", "higher"),
    ("probe.kv_ops_per_s", "1/s", "higher"),
    ("probe.workload_draws_per_s", "1/s", "higher"),
    ("trace.overhead_x", "x", "lower"),
    ("machine.calib_loops_per_s", "1/s", "higher"),
    ("machine.calib_drift", "fraction", "lower"),
)

PER_LAYER = (
    tuple((f"{layer}.self_share", "fraction", "lower") for layer in LAYERS)
    + tuple((f"{layer}.calls_per_op", "1/op", "lower") for layer in LAYERS)
    + WORK_COUNTS + FIDELITY_COUNTS + SIM_METRICS + HOST_LAYER_TIMES
)

#: Per-layer metrics `compare` requires to be bit-identical between two
#: payloads taken at the same seed and sizes.
EXACT = frozenset(name for name, _, _ in SIM_METRICS + FIDELITY_COUNTS)
