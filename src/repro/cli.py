"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiment`` — run one (architecture, model, workload) point and
  print latency/throughput.
* ``figure``     — regenerate one of the paper's evaluation artifacts
  (fig4, fig9, fig10, fig11, fig12, fig13, fig14, tab1).
* ``verify``     — model-check a protocol configuration (Table I).
* ``check``      — record invocation/response histories from real
  cluster runs under seeded schedule/crash exploration and check
  (durable) linearizability; failures shrink to a minimal
  counterexample and export a Perfetto trace.  ``--victims K`` crashes
  K nodes (up to the whole cluster) at each explored crash point and
  judges the rollback with the checkpoint-aware rule families.
* ``chaos``      — run a workload under seeded fault injection
  (loss/duplication/delay + crash/restart) and check the runtime
  invariants afterwards; ``--disaster K`` additionally crashes the
  last K nodes at once mid-run and rolls them back through
  restore-from-checkpoint while the survivors stay under load.
* ``ckpt``       — run a workload with coordinated checkpointing /
  communication-induced log truncation enabled and report the
  checkpoint lines and truncation statistics.
* ``trace``      — trace a single replicated write and print the
  per-node protocol timeline; ``--export`` additionally writes a
  Chrome trace-event JSON (Perfetto-loadable).
* ``profile``    — run a workload with the span recorder attached and
  print the per-protocol-phase latency breakdown.
* ``sweep``      — cartesian parameter sweeps over experiment points.
* ``report``     — assemble benchmarks/results/*.txt into one report.
* ``lint``       — run the repo's static analyzer (protocol metadata
  discipline, determinism, ``__slots__`` integrity, fast-path parity,
  API discipline); exits non-zero on unsuppressed findings.
* ``models`` / ``configs`` — list the available DDP models and
  architecture presets.

``experiment``, ``chaos`` and ``sweep`` share one set of workload flags
and build their :class:`ExperimentConfig` through
:func:`_experiment_config`, so a flag added there reaches all three.

Subsystem imports live inside the command functions, not at module
level: ``python -m repro lint`` (and ``--help``) must work on a fresh
checkout without dragging in the simulator stack.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: Paper artifacts ``figure`` can regenerate (dispatch is lazy — see
#: :func:`_cmd_figure`).
FIGURE_NAMES = ("fig4", "fig9", "fig10", "fig11", "fig12", "fig13",
                "fig14", "tab1")


def _add_experiment_args(parser: argparse.ArgumentParser, *,
                         nodes: int = 5, records: int = 200,
                         requests: int = 80, clients: int = 3,
                         write_fraction: float = 0.5) -> None:
    """The shared experiment-point flags (defaults vary per command)."""
    parser.add_argument("--arch", default="MINOS-B",
                        help="architecture preset (see `configs`)")
    parser.add_argument("--model", default="synch",
                        help="DDP model (see `models`)")
    parser.add_argument("--nodes", type=int, default=nodes)
    parser.add_argument("--records", type=int, default=records)
    parser.add_argument("--requests", type=int, default=requests)
    parser.add_argument("--clients", type=int, default=clients)
    parser.add_argument("--write-fraction", type=float,
                        default=write_fraction)
    parser.add_argument("--distribution", default="zipfian",
                        choices=("zipfian", "uniform"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--value-size", type=int, default=None,
                        help="record payload bytes (default 1024)")
    parser.add_argument("--json", action="store_true",
                        help="emit the results as JSON")


def _experiment_config(args: argparse.Namespace):
    """The one place CLI flags become an :class:`ExperimentConfig`."""
    from repro.bench.harness import ExperimentConfig
    from repro.core.config import config_by_name
    from repro.core.model import model_by_name

    return ExperimentConfig(
        model=model_by_name(args.model),
        config=config_by_name(args.arch),
        nodes=args.nodes,
        records=args.records,
        requests_per_client=args.requests,
        clients_per_node=args.clients,
        write_fraction=args.write_fraction,
        distribution=args.distribution,
        seed=args.seed,
        value_size=args.value_size,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MINOS (HPCA 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment", help="run one experiment point")
    _add_experiment_args(experiment)

    figure = sub.add_parser("figure", help="regenerate a paper artifact")
    figure.add_argument("name", choices=sorted(FIGURE_NAMES))
    figure.add_argument("--scale", default="smoke",
                        choices=("smoke", "default", "full"))

    chaos = sub.add_parser(
        "chaos", help="run a workload under seeded fault injection and "
        "check runtime invariants")
    _add_experiment_args(chaos, nodes=4, records=50, requests=30,
                         clients=2, write_fraction=0.8)
    chaos.add_argument("--drop", type=float, default=0.01,
                       help="per-packet loss probability")
    chaos.add_argument("--duplicate", type=float, default=0.0,
                       help="per-packet duplication probability")
    chaos.add_argument("--delay", type=float, default=0.0,
                       help="per-packet extra-delay probability")
    chaos.add_argument("--crash-node", type=int, default=None,
                       help="crash this node mid-run")
    chaos.add_argument("--crash-at", type=float, default=100.0,
                       help="crash time in us")
    chaos.add_argument("--restore-at", type=float, default=600.0,
                       help="restart time in us (-1: stay down)")
    chaos.add_argument("--disaster", type=int, default=0, metavar="K",
                       help="crash the last K nodes at once mid-run and "
                       "roll them back via restore-from-checkpoint "
                       "while the surviving clients stay under load "
                       "(0: off)")
    chaos.add_argument("--disaster-at", type=float, default=600.0,
                       help="disaster time in us")
    chaos.add_argument("--disaster-down", type=float, default=300.0,
                       help="us the disaster victims stay down before "
                       "the rollback restore")
    chaos.add_argument("--ckpt-interval", type=float, default=None,
                       help="enable coordinated checkpointing with this "
                       "round interval in us")
    chaos.add_argument("--ckpt-watermark", type=int, default=0,
                       help="log-size watermark for communication-"
                       "induced checkpoints (0: off)")

    ckpt = sub.add_parser(
        "ckpt", help="run a workload with coordinated checkpointing / "
        "CIC log truncation and report lines + truncation stats")
    _add_experiment_args(ckpt, nodes=4, records=50, requests=30,
                         clients=2, write_fraction=0.8)
    ckpt.add_argument("--interval", type=float, default=200.0,
                      help="coordinated-round interval in us (-1: "
                      "on-demand rounds only)")
    ckpt.add_argument("--watermark", type=int, default=0,
                      help="log-size watermark for communication-"
                      "induced checkpoints (0: off)")
    ckpt.add_argument("--coordinator", type=int, default=0,
                      help="node id that initiates coordinated rounds")
    ckpt.add_argument("--rounds", type=int, default=1,
                      help="extra on-demand rounds after the workload "
                      "drains")

    verify = sub.add_parser("verify", help="model-check a protocol")
    verify.add_argument("--model", default="synch")
    verify.add_argument("--arch", default="MINOS-B")
    verify.add_argument("--offload", action="store_true",
                        help="check the SmartNIC-offload variant "
                        "(shorthand for --arch MINOS-O)")
    verify.add_argument("--nodes", type=int, default=2)
    verify.add_argument("--writes", type=int, default=2,
                        help="concurrent conflicting writes to check")
    verify.add_argument("--json", action="store_true",
                        help="emit the result as JSON")

    check = sub.add_parser(
        "check", help="check implementation histories for (durable) "
        "linearizability under seeded schedule/crash exploration")
    check.add_argument("--model", default="synch",
                       help="DDP model (see `models`)")
    check.add_argument("--arch", default="MINOS-B",
                       help="architecture preset (see `configs`)")
    check.add_argument("--offload", action="store_true",
                       help="check the SmartNIC-offload variant "
                       "(shorthand for --arch MINOS-O)")
    check.add_argument("--nodes", type=int, default=3)
    check.add_argument("--ops", type=int, default=16,
                       help="operations per client")
    check.add_argument("--clients", type=int, default=1,
                       help="clients per non-victim node")
    check.add_argument("--keys", type=int, default=6,
                       help="shared keyspace size (contention knob)")
    check.add_argument("--write-fraction", type=float, default=0.6)
    check.add_argument("--seeds", type=int, default=3,
                       help="schedule seeds to explore")
    check.add_argument("--seed", type=int, default=0,
                       help="base seed (seeds run seed..seed+N-1)")
    check.add_argument("--crash-points", default="phase",
                       choices=("none", "phase", "uniform"),
                       help="crash-point enumeration: protocol-phase "
                       "boundaries, uniform times, or no crashes")
    check.add_argument("--crash-trials", type=int, default=2,
                       help="crash points tried per seed")
    check.add_argument("--victims", type=int, default=1,
                       help="nodes crashed at each explored crash point; "
                       ">1 switches to disaster mode (rollback recovery "
                       "to the latest checkpoint line, up to the whole "
                       "cluster)")
    check.add_argument("--ckpt-interval", type=float, default=None,
                       metavar="US", help="enable coordinated checkpoint "
                       "rounds every US inside every explored run")
    check.add_argument("--ckpt-watermark", type=int, default=0,
                       help="enable CIC truncation once a live log "
                       "crosses this many entries")
    check.add_argument("--export", default=None, metavar="PREFIX",
                       dest="export_path",
                       help="on failure, write PREFIX.trace.json "
                       "(Perfetto) and PREFIX.history.json "
                       "(counterexample + full history)")
    check.add_argument("--json", action="store_true",
                       help="emit the repro-check/1 JSON payload")

    trace = sub.add_parser("trace", help="trace one replicated write")
    trace.add_argument("--arch", default="MINOS-O")
    trace.add_argument("--model", default="synch")
    trace.add_argument("--nodes", type=int, default=3)
    trace.add_argument("--export", default=None, metavar="FILE",
                       dest="export_path",
                       help="also write a Chrome trace-event JSON of the "
                       "write (load in Perfetto / chrome://tracing)")
    trace.add_argument("--jsonl", default=None, metavar="FILE",
                       help="also write the raw span/segment stream as "
                       "JSON Lines")

    profile = sub.add_parser(
        "profile", help="run a workload with the span recorder attached "
        "and print the per-phase latency breakdown")
    _add_experiment_args(profile, nodes=3, records=100, requests=40,
                         clients=2)
    profile.add_argument("--export", default=None, metavar="FILE",
                         dest="export_path",
                         help="write the Chrome trace-event JSON here")
    profile.add_argument("--jsonl", default=None, metavar="FILE",
                         help="write the span/segment stream as JSON Lines")

    sweep = sub.add_parser(
        "sweep", help="cartesian parameter sweep "
        "(e.g. sweep nodes=2,4,8 config=MINOS-B,MINOS-O)")
    sweep.add_argument("axes", nargs="+",
                       help="axis specs: name=v1,v2,... (fields of the "
                       "experiment config, plus persist_latency / "
                       "fifo_entries)")
    _add_experiment_args(sweep, records=100, requests=40, clients=2)

    report = sub.add_parser(
        "report", help="assemble benchmarks/results/*.txt into one report")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None,
                        help="write the report here instead of stdout")

    lint = sub.add_parser(
        "lint", help="run the repo static analyzer (protocol metadata "
        "discipline, determinism, __slots__, fast-path parity, API "
        "discipline)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to check (default: "
                      "src/repro and examples)")
    lint.add_argument("--json", action="store_true",
                      help="emit the repro-lint/1 JSON payload (findings "
                      "plus the per-handler metadata access tables)")
    lint.add_argument("--rule", action="append", dest="rules",
                      metavar="RULE_ID",
                      help="run only this rule (repeatable; unknown rule "
                      "ids are a hard error)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="suppression file (default: lint-baseline.json "
                      "at the repo root, when present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the baseline file (report everything)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline file from the current "
                      "findings and exit 0")
    lint.add_argument("--verbose", action="store_true",
                      help="also list baseline-suppressed findings")

    sub.add_parser("models", help="list DDP models")
    sub.add_parser("configs", help="list architecture presets")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_experiment

    config = _experiment_config(args)
    result = run_experiment(config)
    if args.json:
        import json

        payload = result.metrics.to_dict()
        payload["experiment"] = config.label()
        payload["host_utilization"] = result.host_utilization
        payload["communication_fraction"] = \
            result.breakdown.communication_fraction
        print(json.dumps(payload, indent=2))
        return 0
    print(f"experiment: {config.label()}")
    print(f"  write latency : {result.write_latency}")
    print(f"  read  latency : {result.read_latency}")
    print(f"  write tput    : {result.write_throughput / 1e3:.1f} kops/s")
    print(f"  read  tput    : {result.read_throughput / 1e3:.1f} kops/s")
    print(f"  breakdown     : {result.breakdown}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench import figures
    from repro.bench.harness import format_table

    rows = getattr(figures, args.name)() if args.name == "tab1" \
        else getattr(figures, args.name)(args.scale)
    if args.name in ("fig9", "fig10"):
        rows = rows["writes"]
    print(f"=== {args.name} (scale={args.scale}) ===")
    print(format_table(rows))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import MinosCluster
    from repro.faults import (CrashWindow, DisasterSpec, FaultPlan,
                              run_chaos)
    from repro.hw.params import us
    from repro.workloads.ycsb import YcsbWorkload

    crashes = ()
    if args.crash_node is not None:
        restore = None if args.restore_at < 0 else us(args.restore_at)
        crashes = (CrashWindow(node=args.crash_node, at=us(args.crash_at),
                               restore_at=restore),)
    plan = FaultPlan.lossy(seed=args.seed, drop=args.drop,
                           duplicate=args.duplicate, delay=args.delay,
                           crashes=crashes)
    config = _experiment_config(args)
    cluster = MinosCluster(model=config.model, config=config.config,
                           params=config.machine.with_nodes(config.nodes))
    workload = YcsbWorkload(records=config.records,
                            requests_per_client=config.requests_per_client,
                            write_fraction=config.write_fraction,
                            distribution=config.distribution,
                            seed=config.seed,
                            value_size=config.value_size)
    checkpoints = None
    if args.ckpt_interval is not None or args.ckpt_watermark:
        from repro.ckpt import CheckpointConfig

        interval = (None if args.ckpt_interval is None
                    or args.ckpt_interval < 0 else us(args.ckpt_interval))
        checkpoints = CheckpointConfig(interval=interval,
                                       watermark=args.ckpt_watermark)
    disaster = None
    if args.disaster:
        disaster = DisasterSpec(at=us(args.disaster_at),
                                victims=args.disaster,
                                down_for=us(args.disaster_down))
    result = run_chaos(cluster, plan, workload,
                       clients_per_node=config.clients_per_node,
                       checkpoints=checkpoints, disaster=disaster)
    if args.json:
        import json

        payload = result.to_dict()
        payload["experiment"] = (f"{args.arch}/{args.model} "
                                 f"nodes={args.nodes} seed={args.seed}")
        print(json.dumps(payload, indent=2))
        return 0 if result.ok else 1
    faults = result.fault_counters
    counters = cluster.metrics.counters
    print(f"chaos: {args.arch} {cluster.model.name} nodes={args.nodes} "
          f"seed={args.seed}")
    print(f"  injected      : {faults.dropped} dropped, "
          f"{faults.duplicated} duplicated, {faults.delayed} delayed, "
          f"{faults.partition_drops} partition drops "
          f"({faults.inspected} packets inspected)")
    print(f"  robustness    : {counters.inv_retransmits} INV retransmits, "
          f"{counters.val_rebroadcasts} VAL re-broadcasts, "
          f"{counters.dedup_inv_hits}+{counters.dedup_ack_hits} "
          "duplicates suppressed")
    print(f"  recovery      : {result.detections} detections, "
          f"{result.rejoins} rejoins")
    if result.restored or result.checkpoint_rounds:
        print(f"  checkpointing : {result.checkpoint_rounds} fences, "
              f"{result.restored} nodes rolled back, peak log length "
              f"{result.peak_log_length}")
    print(f"  workload      : completed={result.completed} "
          f"writes={counters.writes_completed} "
          f"reads={counters.reads_completed}")
    print(f"  invariants    : {result.checks} checks — "
          + ("all passed" if not result.violations else "VIOLATED"))
    for violation in result.violations:
        print(f"  VIOLATION: {violation}")
    return 0 if result.ok else 1


def _cmd_ckpt(args: argparse.Namespace) -> int:
    from repro.ckpt import CheckpointConfig
    from repro.cluster.client import ClosedLoopClient
    from repro.cluster.cluster import MinosCluster
    from repro.hw.params import us
    from repro.workloads.ycsb import YcsbWorkload

    config = _experiment_config(args)
    cluster = MinosCluster(model=config.model, config=config.config,
                           params=config.machine.with_nodes(config.nodes))
    sim = cluster.sim
    interval = None if args.interval < 0 else us(args.interval)
    manager = cluster.enable_checkpoints(CheckpointConfig(
        interval=interval, watermark=args.watermark,
        coordinator=args.coordinator))
    workload = YcsbWorkload(records=config.records,
                            requests_per_client=config.requests_per_client,
                            write_fraction=config.write_fraction,
                            distribution=config.distribution,
                            seed=config.seed,
                            value_size=config.value_size)
    # The periodic round driver never terminates, so the calendar never
    # drains on its own — advance in slices like the chaos harness.
    cluster.load_records(workload.initial_records())
    clients = []
    for node in cluster.nodes:
        for client_idx in range(config.clients_per_node):
            ops = workload.ops_for(node.node_id, client_idx)
            clients.append(ClosedLoopClient(cluster, node.engine, ops,
                                            client_idx))
    metrics = cluster.metrics
    metrics.started_at = sim.now
    drivers = [sim.spawn(c.run(), name=f"ckpt.client.{i}")
               for i, c in enumerate(clients)]
    slice_s, max_time = us(2_000), us(500_000)
    while (not all(d.triggered for d in drivers)) and sim.now < max_time:
        sim.run(until=min(max_time, sim.now + slice_s))
    metrics.finished_at = max(
        (c.finished_at for c in clients if c.finished_at is not None),
        default=sim.now)
    for _ in range(max(0, args.rounds)):
        cluster.sim.run_process(manager.checkpoint_now(),
                                name="cli.ckpt.round")
    truncated = {node.node_id: node.kv.log.truncated_total
                 for node in cluster.nodes}
    peaks = {node.node_id: node.kv.log.peak_length
             for node in cluster.nodes}
    live = {node.node_id: len(node.kv.log) for node in cluster.nodes}
    if args.json:
        import json

        payload = {
            "schema": "repro-ckpt/1",
            "experiment": (f"{args.arch}/{args.model} "
                           f"nodes={args.nodes} seed={args.seed}"),
            "rounds_started": manager.rounds_started,
            "rounds_completed": manager.rounds_completed,
            "cic_checkpoints": manager.cic_checkpoints,
            "lines": [{"round": line.round_id,
                       "initiated_at": line.initiated_at,
                       "completed_at": line.completed_at,
                       "acked": line.acked,
                       "serials": {str(k): v
                                   for k, v in line.serials.items()}}
                      for line in manager.lines],
            "log_truncated_entries": truncated,
            "log_peak_length": peaks,
            "log_live_length": live,
            "write_throughput": metrics.write_throughput(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"ckpt: {args.arch} {cluster.model.name} nodes={args.nodes} "
          f"seed={args.seed}")
    print(f"  rounds        : {manager.rounds_completed} completed / "
          f"{manager.rounds_started} started, "
          f"{manager.cic_checkpoints} CIC fences")
    for line in manager.lines:
        state = (f"complete @ {line.completed_at * 1e6:.1f}us"
                 if line.complete else "incomplete")
        print(f"  line {line.round_id:3d}      : {state}, "
              f"{len(line.serials)} fences, acked by {line.acked}")
    print(f"  truncated     : " + ", ".join(
        f"n{n}={truncated[n]}" for n in sorted(truncated)))
    print(f"  peak log      : " + ", ".join(
        f"n{n}={peaks[n]}" for n in sorted(peaks)))
    print(f"  live log      : " + ", ".join(
        f"n{n}={live[n]}" for n in sorted(live)))
    print(f"  write tput    : {metrics.write_throughput() / 1e3:.1f} "
          "kops/s")
    return 0


def _resolve_arch(args: argparse.Namespace) -> str:
    """``--offload`` is shorthand for ``--arch MINOS-O`` (verify and
    check accept both spellings, consistently)."""
    return "MINOS-O" if args.offload else args.arch


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.config import config_by_name
    from repro.core.model import model_by_name
    from repro.verify import ModelChecker, ProtocolSpec, WriteDef

    arch = _resolve_arch(args)
    offload = config_by_name(arch).offload
    writes = tuple(WriteDef(coord % args.nodes)
                   for coord in range(args.writes))
    spec = ProtocolSpec(model=model_by_name(args.model), nodes=args.nodes,
                        writes=writes, offload=offload)
    result = ModelChecker(spec).check()
    if args.json:
        import json

        payload = {
            "schema": "repro-verify/1",
            "model": spec.model.name,
            "arch": arch,
            "offload": offload,
            "nodes": args.nodes,
            "writes": args.writes,
            "ok": result.ok,
            "states": result.states,
            "transitions": result.transitions,
            "terminal_states": result.terminal_states,
            "violations": [str(violation)
                           for violation in result.violations],
        }
        print(json.dumps(payload, indent=2))
        return 0 if result.ok else 1
    print(f"verify: {arch} {spec.model.name} nodes={args.nodes} "
          f"writes={args.writes}")
    print(f"  {result}")
    for violation in result.violations:
        print(f"  VIOLATION: {violation}")
    return 0 if result.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import run_check
    from repro.hw.params import us

    arch = _resolve_arch(args)
    checkpoints = None
    if args.ckpt_interval is not None or args.ckpt_watermark:
        from repro.ckpt import CheckpointConfig

        interval = (None if args.ckpt_interval is None
                    or args.ckpt_interval < 0 else us(args.ckpt_interval))
        checkpoints = CheckpointConfig(interval=interval,
                                       watermark=args.ckpt_watermark)
    report = run_check(model=args.model, config=arch, nodes=args.nodes,
                       ops_per_client=args.ops,
                       clients_per_node=args.clients, keys=args.keys,
                       write_fraction=args.write_fraction,
                       seeds=args.seeds, base_seed=args.seed,
                       crash_points=args.crash_points,
                       crash_trials=args.crash_trials,
                       victims=args.victims, checkpoints=checkpoints,
                       export=args.export_path)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    crashes = sum(1 for run in report.runs if run.crash_at is not None)
    states = sum(run.states for run in report.runs)
    ops = sum(run.ops for run in report.runs)
    print(f"check: {report.arch} {report.model} nodes={report.nodes} "
          f"seeds={report.seeds} crash-points={report.crash_points}")
    print(f"  schedules     : {len(report.runs)} runs "
          f"({crashes} with a crash/recover)")
    print(f"  histories     : {ops} ops checked, "
          f"{states} linearization states searched")
    print(f"  verdict       : "
          + ("all histories (durable-)linearizable" if report.ok
             else "VIOLATION"))
    counterexample = report.counterexample
    if counterexample is not None:
        print(f"  counterexample: {counterexample.kind} on "
              f"key={counterexample.key!r} "
              f"({counterexample.label}, "
              f"crash_at={counterexample.crash_at})")
        print(f"    {counterexample.detail}")
        for event in counterexample.events:
            print(f"    {event['kind']:7s} key={event['key']!r} "
                  f"value={event['value']!r} "
                  f"[{event['invoked']:.6g}, {event['responded']}] "
                  f"write_id={event['write_id']}")
        for path in counterexample.exported:
            print(f"    wrote {path}")
    return 0 if report.ok else 1


def _export_obs(obs, export_path, jsonl_path) -> int:
    """Write the requested trace artifacts; non-zero when the exported
    Chrome trace fails its own validator."""
    from repro.obs import (validate_chrome_trace, write_chrome_trace,
                           write_jsonl)

    status = 0
    if export_path:
        payload = write_chrome_trace(obs, export_path)
        problems = validate_chrome_trace(payload)
        for problem in problems:
            print(f"TRACE INVALID: {problem}", file=sys.stderr)
        if problems:
            status = 1
        print(f"wrote {export_path} "
              f"({len(payload['traceEvents'])} trace events)")
    if jsonl_path:
        count = write_jsonl(obs, jsonl_path)
        print(f"wrote {jsonl_path} ({count} records)")
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import MinosCluster
    from repro.core.config import config_by_name
    from repro.core.model import model_by_name
    from repro.hw.params import DEFAULT_MACHINE

    cluster = MinosCluster(model=model_by_name(args.model),
                           config=config_by_name(args.arch),
                           params=DEFAULT_MACHINE.with_nodes(args.nodes))
    tracer = cluster.attach_tracer()
    obs = None
    if args.export_path or args.jsonl:
        obs = cluster.attach_obs()
    cluster.load_records([("key", "v0")])
    result = cluster.write(0, "key", "v1")
    cluster.sim.run()
    print(f"one write on {args.arch} {cluster.model.name}: "
          f"{result.latency * 1e6:.2f} us\n")
    print(tracer.timeline())
    if obs is not None:
        return _export_obs(obs, args.export_path, args.jsonl)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import MinosCluster
    from repro.workloads.ycsb import YcsbWorkload

    config = _experiment_config(args)
    cluster = MinosCluster(model=config.model, config=config.config,
                           params=config.machine.with_nodes(config.nodes))
    obs = cluster.attach_obs()
    workload = YcsbWorkload(records=config.records,
                            requests_per_client=config.requests_per_client,
                            write_fraction=config.write_fraction,
                            distribution=config.distribution,
                            seed=config.seed,
                            value_size=config.value_size)
    cluster.run_workload(workload,
                         clients_per_node=config.clients_per_node)
    if args.json:
        import json

        payload = obs.to_dict()
        payload["experiment"] = config.label()
        print(json.dumps(payload, indent=2))
        return _export_obs(obs, args.export_path, args.jsonl)
    spans = obs.spans_for()
    print(f"profile: {config.label()}")
    print(f"  {len(spans)} spans, {len(obs.segments)} segments, "
          f"{len(obs.instants)} instants across "
          f"{len(obs.nodes())} nodes")
    leaked = obs.open_segments()
    if leaked:
        print(f"  WARNING: {len(leaked)} segments never closed")
    print(f"  {'phase':<18s} {'count':>6s} {'mean':>10s} "
          f"{'p50':>10s} {'p99':>10s}")
    for phase, summary in obs.phase_summaries().items():
        print(f"  {phase:<18s} {summary.count:>6d} "
              f"{summary.mean * 1e6:>8.2f}us "
              f"{summary.p50 * 1e6:>8.2f}us "
              f"{summary.p99 * 1e6:>8.2f}us")
    return _export_obs(obs, args.export_path, args.jsonl)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.harness import format_table
    from repro.bench.sweep import Sweep, parse_axis

    base = _experiment_config(args)
    axes = dict(parse_axis(spec) for spec in args.axes)
    rows = Sweep(base, axes).run()
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
        return 0
    print(format_table(rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    results = pathlib.Path(args.results_dir)
    files = sorted(results.glob("*.txt")) if results.is_dir() else []
    if not files:
        print(f"no result tables under {results}/ — run "
              "`pytest benchmarks/ --benchmark-only` first")
        return 1
    sections = ["# MINOS reproduction — benchmark report", ""]
    for path in files:
        sections.append(f"## {path.stem}")
        sections.append("")
        sections.append("```")
        sections.append(path.read_text().rstrip())
        sections.append("```")
        sections.append("")
    text = "\n".join(sections)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(files)} tables)")
    else:
        print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit codes: 0 clean, 1 gating findings, 2 usage or internal
    analyzer error (unknown ``--rule``, crash inside a rule)."""
    import traceback
    from pathlib import Path

    from repro.analysis import (BASELINE_NAME, Baseline, analyze_project,
                                available_rules, find_project_root,
                                load_project, render_json, render_text)

    if args.rules:
        known = available_rules()
        unknown = [name for name in args.rules if name not in known]
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}; "
                  f"available: {', '.join(known)}", file=sys.stderr)
            return 2
    root = find_project_root(args.paths[0] if args.paths else None)
    baseline_path = (Path(args.baseline) if args.baseline
                     else root / BASELINE_NAME)
    try:
        if args.update_baseline:
            project = load_project(root, paths=args.paths or None)
            result = analyze_project(project, only=args.rules)
            Baseline.from_findings(result.findings).save(baseline_path)
            print(f"wrote {baseline_path} "
                  f"({len(result.findings)} suppressions)")
            return 0
        baseline = None
        if not args.no_baseline and baseline_path.is_file():
            baseline = Baseline.load(baseline_path)
        project = load_project(root, paths=args.paths or None)
        result = analyze_project(project, baseline=baseline,
                                 only=args.rules)
    except Exception:  # noqa: BLE001 — analyzer crash is exit code 2
        traceback.print_exc()
        print("error: internal analyzer error (see traceback above)",
              file=sys.stderr)
        return 2
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 1 if result.gating else 0


def _cmd_models(_args: argparse.Namespace) -> int:
    from repro.core.model import ALL_MODELS

    for model in ALL_MODELS:
        print(model.name)
    return 0


def _cmd_configs(_args: argparse.Namespace) -> int:
    from repro.core.config import ABLATION_CONFIGS

    for config in ABLATION_CONFIGS:
        flags = [name for name in ("offload", "batching", "broadcast")
                 if getattr(config, name)]
        print(f"{config.name:22s} [{', '.join(flags) or 'baseline'}]")
    return 0


_COMMANDS = {
    "chaos": _cmd_chaos,
    "check": _cmd_check,
    "ckpt": _cmd_ckpt,
    "experiment": _cmd_experiment,
    "figure": _cmd_figure,
    "lint": _cmd_lint,
    "report": _cmd_report,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "models": _cmd_models,
    "configs": _cmd_configs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command.  A :class:`~repro.errors.ConfigError` (a bad
    model, architecture or flag value) prints one ``repro: error:`` line
    and exits 2, as argparse does for malformed flags; any other
    exception is a bug and propagates with its traceback."""
    from repro.errors import ConfigError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
