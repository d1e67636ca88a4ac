"""Simulator performance benchmarks (``repro bench``).

The pure-Python kernel bounds every experiment's wall-clock, so kernel
regressions silently inflate the cost of regenerating the paper's
figures.  This module pins the hot path with three benchmarks:

* ``micro_events``   — raw calendar throughput: processes spinning on
  fixed-delay timeouts, nothing else.  Exercises ``Simulator.run``,
  ``Simulator.sleep`` (the pooled-timeout path) and ``Process._resume``.
* ``micro_messages`` — network-layer throughput: back-to-back sends
  between two fabric endpoints.  Adds ``Port``/``Mailbox``/``Store``
  to the mix.
* ``macro_ycsb``     — a full default :class:`ExperimentConfig` run
  (5 nodes, zipfian YCSB, MINOS-B), the shape every figure is built
  from.  Events/sec here is the number that matters.

Each benchmark runs ``repeats`` times and reports the best run (the
others absorb warm-up and scheduler noise).  Results serialize to the
``BENCH_*.json`` format documented in docs/api.md; ``check_against``
implements the CI perf-smoke gate (fail when any rate drops below
``baseline / tolerance``).
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.sim.kernel import Simulator
from repro.sim.network import Network

#: Format tag written into every BENCH_*.json payload.
SCHEMA = "repro-bench/1"


@dataclass
class BenchResult:
    """One benchmark's best-of-``repeats`` outcome."""

    name: str
    wall_s: float
    #: Calendar entries processed during the measured run.
    events: int
    events_per_sec: float
    repeats: int
    #: Benchmark-specific extras (e.g. ``messages_per_sec``) — anything
    #: JSON-serializable.
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "repeats": self.repeats,
        }
        payload.update(self.extra)
        return payload


def _best_of(repeats: int,
             run_once: Callable[[], Tuple[float, int]]) -> Tuple[float, int]:
    """Run *run_once* ``repeats`` times; best run = highest events/sec.

    The cyclic GC is paused around each measured run (the macro path
    already does this in ``run_workload``; the micros get the same
    treatment so all three measure the kernel, not the collector).
    """
    best: Optional[Tuple[float, int]] = None
    for _ in range(max(1, repeats)):
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            wall, events = run_once()
        finally:
            if was_enabled:
                gc.enable()
        if best is None or events / wall > best[1] / best[0]:
            best = (wall, events)
    assert best is not None
    return best


def bench_micro_events(chains: int = 8, hops: int = 25_000,
                       repeats: int = 3) -> BenchResult:
    """Raw calendar throughput: *chains* processes × *hops* timeouts."""

    def run_once() -> Tuple[float, int]:
        sim = Simulator()

        def chain(delay: float):
            for _ in range(hops):
                yield sim.sleep(delay)

        for i in range(chains):
            # Distinct prime-ish delays so the heap sees interleaved
            # entries, not one degenerate FIFO stream.
            sim.spawn(chain(1e-9 * (i + 1)), name=f"chain{i}")
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start, sim.events_processed

    wall, events = _best_of(repeats, run_once)
    return BenchResult(name="micro_events", wall_s=wall, events=events,
                       events_per_sec=events / wall, repeats=repeats)


def bench_micro_messages(messages: int = 20_000,
                         repeats: int = 3) -> BenchResult:
    """Network-layer throughput: ping stream between two endpoints."""
    size_bytes = 256

    def run_once() -> Tuple[float, int]:
        sim = Simulator()
        network = Network(sim)
        network.add_endpoint("a", latency_s=1e-6, bandwidth_bps=1e10)
        inbox = network.add_endpoint("b", latency_s=1e-6,
                                     bandwidth_bps=1e10)

        def sender():
            for i in range(messages):
                yield network.send("a", "b", i, size_bytes)

        def receiver():
            for _ in range(messages):
                yield inbox.get()

        sim.spawn(sender(), name="sender")
        sim.spawn(receiver(), name="receiver")
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start, sim.events_processed

    wall, events = _best_of(repeats, run_once)
    return BenchResult(name="micro_messages", wall_s=wall, events=events,
                       events_per_sec=events / wall, repeats=repeats,
                       extra={"messages": float(messages),
                              "messages_per_sec": messages / wall})


def bench_macro_ycsb(config: Optional[ExperimentConfig] = None,
                     repeats: int = 3) -> BenchResult:
    """Full default YCSB experiment — the end-to-end number."""
    config = config or ExperimentConfig()

    def run_once() -> Tuple[float, int]:
        start = time.perf_counter()
        result = run_experiment(config)
        return time.perf_counter() - start, result.events_processed

    # One untimed warm-up so import/alloc churn lands outside the clock.
    run_experiment(config)
    wall, events = _best_of(repeats, run_once)
    return BenchResult(name="macro_ycsb", wall_s=wall, events=events,
                       events_per_sec=events / wall, repeats=repeats,
                       extra={"label": config.label()})


def bench_macro_ckpt(repeats: int = 3, watermark: int = 20) -> BenchResult:
    """Checkpoint overhead on the default YCSB macro.

    Runs the macro twice — checkpointing off, then CIC truncation at
    *watermark* live-log entries — and reports the ckpt-on rate with
    the off-run rate and their ratio in ``extra``.  The within-run
    ``overhead_ratio`` (on/off events-per-sec, both measured on the
    same machine in the same process) is the CI gate: checkpointing
    must keep >= 0.9x of the plain macro's throughput.
    """
    from repro.ckpt import CheckpointConfig

    off = bench_macro_ycsb(repeats=repeats)
    on_config = ExperimentConfig(
        checkpoints=CheckpointConfig(watermark=watermark))

    def run_once() -> Tuple[float, int]:
        start = time.perf_counter()
        result = run_experiment(on_config)
        return time.perf_counter() - start, result.events_processed

    run_experiment(on_config)
    wall, events = _best_of(repeats, run_once)
    rate = events / wall
    off_rate = off.events_per_sec
    return BenchResult(name="macro_ycsb_ckpt", wall_s=wall, events=events,
                       events_per_sec=rate, repeats=repeats,
                       extra={"label": on_config.label(),
                              "watermark": watermark,
                              "ckpt_off_events_per_sec": off_rate,
                              "overhead_ratio": rate / off_rate})


_BENCHMARKS: Dict[str, Callable[..., BenchResult]] = {
    "micro_events": bench_micro_events,
    "micro_messages": bench_micro_messages,
    "macro_ycsb": bench_macro_ycsb,
    "macro_ycsb_ckpt": bench_macro_ckpt,
}

#: Selection groups accepted by ``repro bench --only``.
GROUPS = {
    "all": ("micro_events", "micro_messages", "macro_ycsb",
            "macro_ycsb_ckpt"),
    "micro": ("micro_events", "micro_messages"),
    "macro": ("macro_ycsb", "macro_ycsb_ckpt"),
    "ckpt": ("macro_ycsb_ckpt",),
}


def run_bench(only: str = "all", repeats: int = 3) -> Dict[str, object]:
    """Run the selected benchmarks; returns the BENCH_*.json payload."""
    if only not in GROUPS:
        raise ValueError(f"unknown benchmark group {only!r} "
                         f"(choose from {sorted(GROUPS)})")
    import platform

    benchmarks: Dict[str, object] = {}
    for name in GROUPS[only]:
        result = _BENCHMARKS[name](repeats=repeats)
        benchmarks[name] = result.to_dict()
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }


#: Rate fields compared by :func:`check_against`, per benchmark.
_RATE_FIELDS = ("events_per_sec", "messages_per_sec")


def check_against(payload: Dict[str, object], baseline: Dict[str, object],
                  tolerance: float = 2.0) -> List[str]:
    """Compare *payload* rates against *baseline*; returns failure lines.

    A benchmark fails when a rate drops below ``baseline / tolerance``
    (the CI gate uses 2×, wide enough for shared-runner noise but
    tight enough to catch a kernel regression).  Benchmarks present in
    only one payload are skipped — the gate guards regressions, not
    coverage.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    failures: List[str] = []
    current = payload.get("benchmarks", {})
    reference = baseline.get("benchmarks", {})
    for name, ref in reference.items():
        cur = current.get(name)
        if not isinstance(cur, dict) or not isinstance(ref, dict):
            continue
        for rate in _RATE_FIELDS:
            if rate not in ref or rate not in cur:
                continue
            floor = ref[rate] / tolerance
            if cur[rate] < floor:
                failures.append(
                    f"{name}.{rate}: {cur[rate]:,.0f}/s is below "
                    f"{floor:,.0f}/s (baseline {ref[rate]:,.0f}/s "
                    f"/ tolerance {tolerance:g}x)")
    return failures


def format_report(payload: Dict[str, object]) -> str:
    """Human-readable summary of a BENCH_*.json payload."""
    lines = [f"simulator benchmarks (python {payload.get('python', '?')})"]
    for name, result in payload.get("benchmarks", {}).items():
        if not isinstance(result, dict):
            continue
        lines.append(
            f"  {name:15s} {result['events_per_sec']:>12,.0f} events/s"
            f"  ({result['events']:,} events in {result['wall_s']:.3f}s)")
        if "messages_per_sec" in result:
            lines.append(
                f"  {'':15s} {result['messages_per_sec']:>12,.0f} messages/s")
    return "\n".join(lines)


def load_baseline(path: str) -> Dict[str, object]:
    """Read a previously written BENCH_*.json file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unexpected schema {payload.get('schema')!r} "
            f"(expected {SCHEMA!r})")
    return payload
