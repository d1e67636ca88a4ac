"""The ledger's worker: one workload in one fresh interpreter.

``run.py`` launches this file with ``PYTHONHASHSEED=0`` and a scrubbed
environment and reads JSON lines from its standard output.  The first
line (``"ready"``) is printed the moment the cold start is over —
``import repro.api``, first ``MinosCluster`` for the workload's
<model, arch, nodes>, ``load_records`` — so the parent can time the
start from outside; the last line carries the mode's results.

The system is driven only through its public entry points
(``repro.api``, ``repro.verify.RuntimeMonitor``, the read-only counters
on ``Simulator``, ``Port``, the NICs, ``NvmLog``, ``HashTable``,
``Metrics.counters``) and, for the layer probes, the public calls of
``Simulator``, ``Network`` and ``MinosKV``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

# Nothing the cold start does not need is imported up here: the parent
# times this process from creation to its "ready" line.
from calibrate import calibrate
from layers import calls_of, layer_table
from spec import LAYERS, WORKLOADS, sized

#: Timed repeats never number fewer than this, whatever ``--seconds``.
MIN_REPEATS = 3
#: A timed repeat runs this share of the workload's full size (about
#: half a second), so that every repeat sits between two calibrations
#: taken at most that far from it: the machine's speed drifts within
#: seconds, and a 4 s repeat outruns the calibration next to it.
TIMED_SCALE = 0.125
#: Timed repeat k draws op stream k modulo this from the workload seed.
#: One eighth-size stream's read/write mix (or three schedules' cost)
#: sits +-2.6 % off the mean, a bias that a median over repeats of the
#: *same* stream keeps and a median over many streams averages away;
#: streams come round again so that repeats of one stream can be checked
#: for identical simulated results.
SUBSEEDS = 16
#: Length of one calibration between timed repeats / around the traced
#: pass.
TIMED_CALIBRATION_S = 0.1
TRACE_CALIBRATION_S = 0.5


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def _latency_us(recorder) -> dict:
    summary = recorder.summary()
    return {"count": summary.count, "mean": summary.mean * 1e6,
            "p50": summary.p50 * 1e6, "p99": summary.p99 * 1e6}


class YcsbRunner:
    """Closed-loop YCSB on one cluster: ``nodes x clients`` request
    loops, each issuing its next op when the previous one returns."""

    def __init__(self, api, params: dict, seed: int) -> None:
        self.api = api
        self.params = params
        self.seed = seed
        self.model = api.model_by_name(params["model"])
        self.config = api.config_by_name(params["arch"])
        self.machine = api.DEFAULT_MACHINE.with_nodes(params["nodes"])

    def build(self):
        return self.api.MinosCluster(model=self.model, config=self.config,
                                     params=self.machine)

    def _workload(self, scale: float = 1.0, index=None):
        p = self.params
        seed = self.seed if index is None else self.seed * 1000 + index
        return self.api.YcsbWorkload(
            records=p["records"],
            requests_per_client=max(1, int(p["requests"] * scale)),
            write_fraction=p["write_fraction"], seed=seed)

    def load(self, cluster) -> None:
        cluster.load_records(self._workload().initial_records())

    def run(self, scale: float = 1.0, index=None, keep: bool = False):
        """The timed region: cluster build through ``run_workload``.
        *index* picks the timed repeat's own op stream (see
        ``SUBSEEDS``); None is the workload seed itself."""
        workload = self._workload(scale, index)
        start = time.perf_counter()
        cluster = self.build()
        cluster.run_workload(workload,
                             clients_per_node=self.params["clients"])
        return time.perf_counter() - start, (cluster, workload)

    def judge(self, handle) -> dict:
        """Correctness gate + the simulated results of one repeat."""
        from repro.errors import VerificationError
        from repro.verify import RuntimeMonitor

        cluster, workload = handle
        metrics = cluster.metrics
        k = metrics.counters
        attempted = (self.params["nodes"] * self.params["clients"]
                     * workload.requests_per_client)
        completed = (k.writes_completed + k.writes_obsolete
                     + k.reads_completed + metrics.persist_latency.count)
        error = None
        try:
            RuntimeMonitor(cluster).check_quiescent()
        except VerificationError as exc:
            error = str(exc)
        if error is None and completed != attempted:
            error = f"{completed} of {attempted} client ops completed"
        sim = {"events": cluster.sim.events_processed,
               "kops_per_s": completed / metrics.duration / 1e3,
               "write_us": _latency_us(metrics.write_latency),
               "read_us": _latency_us(metrics.read_latency),
               "counters": dict(vars(k))}
        return {"attempted": attempted, "completed": completed,
                "ok": error is None, "error": error, "sim": sim,
                "clusters": [cluster]}


class CheckRunner:
    """``run_check`` as users run it: schedule + crash exploration with
    obs attached, faults armed, recovery, WGL + durability rules."""

    def __init__(self, api, params: dict, seed: int) -> None:
        self.api = api
        self.params = params
        self.seed = seed

    def build(self):
        api, p = self.api, self.params
        return api.MinosCluster(
            model=api.model_by_name(p["model"]),
            config=api.config_by_name(p["arch"]),
            params=api.DEFAULT_MACHINE.with_nodes(p["nodes"]))

    def load(self, cluster) -> None:
        workload = self.api.CheckWorkload(
            ops_per_client=self.params["ops_per_client"], seed=self.seed)
        cluster.load_records(workload.initial_records())

    def run(self, scale: float = 1.0, index=None, keep: bool = False):
        p = self.params
        seeds = max(1, int(p["seeds"] * scale))
        clusters: list = []
        start = time.perf_counter()
        report = self.api.run_check(
            model=p["model"], config=p["arch"], nodes=p["nodes"],
            ops_per_client=p["ops_per_client"], seeds=seeds,
            # Timed repeat *index* explores its own run of schedules.
            base_seed=self.seed + (index or 0) * seeds,
            # run_check's documented instrumentation hook; only the
            # counter-reading repeat keeps the clusters alive.
            setup=clusters.append if keep else None)
        return time.perf_counter() - start, (report, clusters)

    def judge(self, handle) -> dict:
        report, clusters = handle
        runs = report.runs
        attempted = sum(run.ops for run in runs)
        completed = sum(run.ops - run.pending for run in runs if run.ok)
        error = None
        if not report.ok:
            bad = [run.label for run in runs if not run.ok]
            error = f"schedules failed: {bad}"
            if report.counterexample is not None:
                error += f" ({report.counterexample.detail})"
        elif completed != attempted:
            error = f"{completed} of {attempted} history ops completed"
        sim = {"schedules": len(runs), "ops": attempted,
               "wgl_states": sum(run.states for run in runs),
               "duration_s": sum(run.duration for run in runs)}
        return {"attempted": attempted, "completed": completed,
                "ok": error is None, "error": error, "sim": sim,
                "clusters": clusters}


def make_runner(api, workload: str, seed: int, quick: bool):
    params = sized(workload, quick)
    cls = YcsbRunner if params["kind"] == "ycsb" else CheckRunner
    return cls(api, params, seed)


def repeat(runner, scale: float = 1.0, index=None, keep: bool = False,
           profile=None) -> dict:
    """One repeat with the collector quiet and the gate outside the
    clock (and outside *profile*, a ``cProfile.Profile``)."""
    gc.collect()
    if profile is not None:
        profile.enable()
    wall, handle = runner.run(scale=scale, index=index, keep=keep)
    if profile is not None:
        profile.disable()
    result = runner.judge(handle)
    result["wall_s"] = wall
    result["index"] = index
    if not keep:
        del result["clusters"]
    return result


# -- metrics read off public counters ------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(sim: dict) -> dict:
    """The simulated-time results of one repeat (0 where a workload has
    no such operation; ``run_check`` exposes none of them)."""
    write = sim.get("write_us", {})
    read = sim.get("read_us", {})
    return {
        "sim_write_p50_us": write.get("p50", 0.0),
        "sim_write_p99_us": write.get("p99", 0.0),
        "sim_read_p50_us": read.get("p50", 0.0),
        "sim_read_p99_us": read.get("p99", 0.0),
        "sim_kops_per_s": sim.get("kops_per_s", 0.0),
    }


def counter_metrics(result: dict) -> dict:
    """Per-op counts from the clusters of one untraced repeat."""
    clusters = result["clusters"]
    ops = result["completed"]
    kops = ops / 1e3
    nodes = [node for cluster in clusters for node in cluster.nodes]
    ports = [cluster.network.port(name) for cluster in clusters
             for name in cluster.network.endpoints()]
    devices = [node.snic if node.snic is not None else node.nic
               for node in nodes]
    totals: dict = {}
    for cluster in clusters:
        for name, value in vars(cluster.metrics.counters).items():
            totals[name] = totals.get(name, 0) + value
    writes = totals["writes_completed"]
    all_writes = writes + totals["writes_obsolete"]
    core_seconds = sum(cluster.sim.now * len(cluster.nodes)
                       * cluster.params.host.cores for cluster in clusters)
    sim = result["sim"]
    return {
        "sim.events_per_op": _ratio(
            sum(cluster.sim.events_processed for cluster in clusters), ops),
        "net.packets_per_op": _ratio(
            sum(port.packets_sent for port in ports), ops),
        "net.bytes_per_op": _ratio(
            sum(port.bytes_sent for port in ports), ops),
        "nic.msgs_sent_per_op": _ratio(
            sum(dev.messages_sent for dev in devices), ops),
        "nic.msgs_recv_per_op": _ratio(
            sum(dev.messages_received for dev in devices), ops),
        "snic.vfifo_skips_per_kop": _ratio(
            sum(node.snic.vfifo_skipped for node in nodes
                if node.snic is not None), kops),
        "core.invs_per_write": _ratio(totals["invs_sent"], writes),
        "core.acks_per_write": _ratio(totals["acks_sent"], writes),
        "core.vals_per_write": _ratio(totals["vals_sent"], writes),
        "core.obsolete_write_share": _ratio(totals["writes_obsolete"],
                                            all_writes),
        "core.read_stalls_per_kop": _ratio(totals["read_stalls"], kops),
        "core.rdlock_snatches_per_kop": _ratio(totals["rdlock_snatches"],
                                               kops),
        "core.retransmits_per_kop": _ratio(
            totals["inv_retransmits"] + totals["val_rebroadcasts"], kops),
        "core.dedup_hits_per_kop": _ratio(
            totals["dedup_inv_hits"] + totals["dedup_ack_hits"], kops),
        "kv.probes_per_op": _ratio(
            sum(node.kv.table.total_probes for node in nodes), ops),
        "kv.log_appends_per_write": _ratio(
            sum(node.kv.log.appends for node in nodes), writes),
        "kv.log_peak_len": max(node.kv.log.peak_length for node in nodes),
        "hw.nvm_ops_per_write": _ratio(
            sum(node.host.nvm.ops for node in nodes), writes),
        "hw.host_utilization": _ratio(
            sum(node.host.busy_time for node in nodes), core_seconds),
        "check.schedules": sim.get("schedules", 0),
        "check.wgl_states_per_op": _ratio(sim.get("wgl_states", 0), ops),
    }


def profile_metrics(runner) -> tuple:
    """One repeat under cProfile -> (layer metrics, the repeat)."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    result = repeat(runner, profile=profile)
    ops = result["completed"]
    stats = pstats.Stats(profile).stats
    table = layer_table(stats)
    total = sum(row["self_s"] for row in table.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(table[layer]["self_s"],
                                                total)
        metrics[f"{layer}.calls_per_op"] = _ratio(table[layer]["calls"],
                                                  ops)
    metrics["obs.share_of_wall"] = metrics["obs.self_share"]
    for name, fragment, func in (
            ("sim.sleeps_per_op", "/repro/sim/kernel.py", "sleep"),
            ("sim.resumes_per_op", "/repro/sim/process.py", "_resume"),
            ("sim.spawns_per_op", "/repro/sim/kernel.py", "spawn")):
        metrics[name] = _ratio(calls_of(stats, fragment, func), ops)
    return metrics, result


# -- layer probes: one layer timed alone through its public calls ---------


def probe_metrics(api, scale: float) -> dict:
    from repro.core.timestamp import INITIAL_TS
    from repro.kv.store import MinosKV
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network

    def sim_events() -> float:
        sim = Simulator()
        hops = int(25_000 * scale)

        def chain(delay):
            for _ in range(hops):
                yield sim.sleep(delay)

        for i in range(8):
            sim.spawn(chain(1e-9 * (i + 1)), name=f"chain{i}")
        start = time.perf_counter()
        sim.run()
        return sim.events_processed / (time.perf_counter() - start)

    def net_msgs() -> float:
        sim = Simulator()
        network = Network(sim)
        network.add_endpoint("a", latency_s=1e-6, bandwidth_bps=1e10)
        inbox = network.add_endpoint("b", latency_s=1e-6,
                                     bandwidth_bps=1e10)
        messages = int(30_000 * scale)

        def sender():
            for i in range(messages):
                yield network.send("a", "b", i, 256)

        def receiver():
            for _ in range(messages):
                yield inbox.get()

        sim.spawn(sender(), name="sender")
        sim.spawn(receiver(), name="receiver")
        start = time.perf_counter()
        sim.run()
        return messages / (time.perf_counter() - start)

    def kv_ops() -> float:
        kv = MinosKV(Simulator(), 0)
        keys = [f"user{i}" for i in range(200)]
        for key in keys:
            kv.load_initial(key, "init")
        rounds = int(300 * scale)
        ts = INITIAL_TS
        start = time.perf_counter()
        for _ in range(rounds):
            ts = ts.next_for(0)
            for key in keys:
                kv.volatile_write(key, "v", ts)
                kv.volatile_read(key)
                kv.persist(key, "v", ts)
        return 3 * rounds * len(keys) / (time.perf_counter() - start)

    def workload_draws() -> float:
        draws = int(150_000 * scale)
        workload = api.YcsbWorkload(records=200, requests_per_client=draws,
                                    write_fraction=0.5, seed=1)
        start = time.perf_counter()
        count = sum(1 for _ in workload.ops_for(0, 0))
        return count / (time.perf_counter() - start)

    gc.collect()
    return {"probe.sim_events_per_s": sim_events(),
            "probe.net_msgs_per_s": net_msgs(),
            "probe.kv_ops_per_s": kv_ops(),
            "probe.workload_draws_per_s": workload_draws()}


# -- modes -----------------------------------------------------------------


def measure(runner, seconds: float) -> dict:
    """Tracing off: one full-size repeat (untimed: it warms the class
    cache and the allocator and sets the memory high-water mark), then
    eighth-size timed repeats, each between two calibrations, until
    ``seconds`` are used up."""
    import resource

    full = repeat(runner)
    repeats = []
    start = time.perf_counter()
    after = calibrate(TIMED_CALIBRATION_S)
    while True:
        before = after
        result = repeat(runner, scale=TIMED_SCALE,
                        index=len(repeats) % SUBSEEDS)
        after = calibrate(TIMED_CALIBRATION_S)
        result["calib_loops_per_s"] = (before + after) / 2
        repeats.append(result)
        elapsed = time.perf_counter() - start
        if len(repeats) >= MIN_REPEATS and elapsed >= seconds:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"full": full, "repeats": repeats,
            "peak_rss_mb": rss_kb / 1024.0}


def trace(api, runner, quick: bool) -> dict:
    """Full-size repeats: a discarded warm-up, two untraced (counters
    are read off the second), one under cProfile; then the probes."""
    import statistics

    repeat(runner, scale=0.25)
    calibration_s = TIMED_CALIBRATION_S if quick else TRACE_CALIBRATION_S
    calib_before = calibrate(calibration_s)
    untraced = [repeat(runner), repeat(runner, keep=True)]
    per_layer = counter_metrics(untraced[-1])
    per_layer.update(sim_metrics(untraced[-1]["sim"]))
    del untraced[-1]["clusters"]
    layer_metrics, traced = profile_metrics(runner)
    calib_after = calibrate(calibration_s)
    per_layer.update(layer_metrics)
    per_layer["trace.overhead_x"] = traced["wall_s"] / statistics.median(
        result["wall_s"] for result in untraced)
    per_layer["machine.calib_loops_per_s"] = calib_before
    per_layer["machine.calib_drift"] = (abs(calib_after - calib_before)
                                        / calib_before)
    per_layer.update(probe_metrics(api, 0.1 if quick else 1.0))
    return {"repeats": untraced + [traced], "per_layer": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("coldstart", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro.api as api
    t1 = time.perf_counter()
    runner = make_runner(api, args.workload, args.seed, args.quick)
    cluster = runner.build()
    t2 = time.perf_counter()
    runner.load(cluster)
    t3 = time.perf_counter()
    emit({"ready": True, "setup.import_s": t1 - t0,
          "setup.first_build_s": t2 - t1, "setup.load_s": t3 - t2})
    del cluster

    if args.mode == "coldstart":
        start = time.perf_counter()
        runner.build()
        emit({"setup.warm_build_s": time.perf_counter() - start})
        return 0
    if args.mode == "measure":
        emit(measure(runner, args.seconds))
    else:
        emit(trace(api, runner, args.quick))
    return 0


if __name__ == "__main__":
    sys.exit(main())
