"""Per-figure experiment definitions (paper §IV, §VIII, Table I).

Each ``figN()`` function regenerates one evaluation artifact of the paper
and returns its rows (list of dicts) following the figure's own
conventions (normalization baselines, bar groupings).  The ``scale``
parameter picks request-count presets: ``"smoke"`` for tests,
``"default"`` for the benchmark suite, ``"full"`` for the paper's actual
sizes (hours of wall-clock in a pure-Python DES — documented, not used by
the suite).

Each figure builds its list of independent points, maps them through
:func:`repro.bench.pool.run_ordered` (a fork pool; rows are identical to
a serial loop) and reduces the results in point order.

EXPERIMENTS.md records the paper-vs-measured comparison for every one of
these.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Tuple

from repro.bench.harness import (ExperimentConfig, run_experiment,
                                 run_microservice)
from repro.bench.pool import run_ordered
from repro.core.config import (ABLATION_CONFIGS, MINOS_B, MINOS_O,
                               ProtocolConfig)
from repro.core.model import ALL_MODELS, LIN_SYNCH
from repro.hw.params import DEFAULT_MACHINE, ns, us
from repro.metrics.stats import Summary
from repro.workloads.deathstar import MEDIA_LOGIN, SOCIAL_LOGIN

#: Request-count presets: (records, requests_per_client, clients_per_node).
SCALES = {
    "smoke": (100, 25, 2),
    "default": (200, 70, 3),
    "full": (100_000, 100_000, 5),  # the paper's configuration
}


def _base(scale: str, **overrides) -> ExperimentConfig:
    records, requests, clients = SCALES[scale]
    defaults = dict(records=records, requests_per_client=requests,
                    clients_per_node=clients)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ----------------------------------------------------------------------
# Figure 4 — MINOS-B write latency: communication vs computation
# ----------------------------------------------------------------------

def fig4(scale: str = "default") -> List[Dict[str, object]]:
    """Average MINOS-B write latency per model, split comm/comp.

    Paper shape: conservative persistency ⇒ higher computation time;
    communication contributes 51-73 % and varies less across models.
    """
    results = run_ordered(run_experiment, [
        _base(scale, model=model, config=MINOS_B) for model in ALL_MODELS])
    rows = []
    for model, result in zip(ALL_MODELS, results):
        breakdown = result.breakdown
        rows.append({
            "model": str(model),
            "total_us": breakdown.total * 1e6,
            "comm_us": breakdown.communication * 1e6,
            "comp_us": breakdown.computation * 1e6,
            "comm_frac": breakdown.communication_fraction,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 9 — latency & throughput vs write/read mix, B vs O
# ----------------------------------------------------------------------

def fig9(scale: str = "default",
         models=ALL_MODELS, mixes=(0.2, 0.5, 0.8, 1.0)) -> Dict[str, list]:
    """Normalized write (a) and read (b) latency/throughput.

    Everything is normalized to MINOS-B ⟨Lin, Synch⟩ at the 50 % mix, as
    in the paper.  Paper shape: O is 2-3× better on both metrics; O's
    throughput grows with the write fraction while its latency barely
    moves.
    """
    keys = [(arch, model, mix) for arch in (MINOS_B, MINOS_O)
            for model in models for mix in mixes]
    runs = run_ordered(run_experiment, [
        _base(scale, model=model, config=arch, write_fraction=mix)
        for arch, model, mix in keys])
    results = {(arch.name, str(model), mix): run
               for (arch, model, mix), run in zip(keys, runs)}
    base = results[("MINOS-B", str(LIN_SYNCH), 0.5)]
    writes, reads = [], []
    for (arch, model, mix), res in results.items():
        writes.append({
            "arch": arch, "model": model, "write%": int(mix * 100),
            "norm_latency": res.write_latency.mean /
            base.write_latency.mean,
            "norm_throughput": res.write_throughput /
            base.write_throughput,
            "wlat_us": res.write_latency.mean * 1e6,
        })
        if mix < 1.0:
            reads.append({
                "arch": arch, "model": model,
                "read%": int((1 - mix) * 100),
                "norm_latency": res.read_latency.mean /
                base.read_latency.mean,
                "norm_throughput": res.read_throughput /
                base.read_throughput,
                "rlat_us": res.read_latency.mean * 1e6,
            })
    return {"writes": writes, "reads": reads}


# ----------------------------------------------------------------------
# Figure 10 — latency & throughput vs node count
# ----------------------------------------------------------------------

def fig10(scale: str = "default", models=ALL_MODELS,
          node_counts=(2, 4, 6, 8, 10)) -> Dict[str, list]:
    """Scaling with cluster size, normalized to MINOS-B ⟨Lin, Synch⟩ at
    two nodes.  Paper shape: O's throughput rises with node count at
    modest latency cost; B's latency rises quickly with little
    throughput gain."""
    keys = [(arch, model, nodes) for arch in (MINOS_B, MINOS_O)
            for model in models for nodes in node_counts]
    runs = run_ordered(run_experiment, [
        _base(scale, model=model, config=arch, nodes=nodes)
        for arch, model, nodes in keys])
    results = {(arch.name, str(model), nodes): run
               for (arch, model, nodes), run in zip(keys, runs)}
    base = results[("MINOS-B", str(LIN_SYNCH), node_counts[0])]
    writes, reads = [], []
    for (arch, model, nodes), res in results.items():
        writes.append({
            "arch": arch, "model": model, "nodes": nodes,
            "norm_latency": res.write_latency.mean /
            base.write_latency.mean,
            "norm_throughput": res.write_throughput /
            base.write_throughput,
        })
        reads.append({
            "arch": arch, "model": model, "nodes": nodes,
            "norm_latency": res.read_latency.mean / base.read_latency.mean,
            "norm_throughput": res.read_throughput /
            base.read_throughput,
        })
    return {"writes": writes, "reads": reads}


# ----------------------------------------------------------------------
# Figure 11 — DeathStar Login end-to-end latency
# ----------------------------------------------------------------------

def _microservice(point: Tuple, **knobs) -> Summary:
    """One fig11 point: ``(function, model, arch)`` -> the end-to-end
    latency summary of :func:`run_microservice`."""
    function, model, arch = point
    return run_microservice(function, model, arch, **knobs)


def fig11(scale: str = "default", models=ALL_MODELS,
          nodes: int = 16) -> List[Dict[str, object]]:
    """End-to-end latency of the Social/Media Login functions on a
    16-node cluster, B vs O, normalized to ⟨Lin, Synch⟩ MINOS-B Social.
    Paper shape: O reduces end-to-end latency across the board, 35 % on
    average."""
    # The paper keeps five cores busy per node; concurrency is what makes
    # MINOS-B's storage time a significant share of the 500 us RTT.
    invocations, clients = {"smoke": (2, 3), "default": (3, 5),
                            "full": (50, 5)}[scale]
    points = [(function, model, arch) for model in models
              for function in (SOCIAL_LOGIN, MEDIA_LOGIN)
              for arch in (MINOS_B, MINOS_O)]
    summaries = run_ordered(
        partial(_microservice, nodes=nodes,
                invocations_per_node=invocations, clients_per_node=clients),
        points)
    raw = {(str(model), function.application, arch.name): summary
           for (function, model, arch), summary in zip(points, summaries)}
    base = raw[(str(LIN_SYNCH), "social", "MINOS-B")]
    rows = []
    for (model, app, arch), summary in raw.items():
        rows.append({
            "model": model, "application": app, "arch": arch,
            "latency_us": summary.mean * 1e6,
            "normalized": summary.mean / base.mean,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 12 — impact of the MINOS-O optimizations (ablation)
# ----------------------------------------------------------------------

def fig12(scale: str = "default") -> List[Dict[str, object]]:
    """Average write latency of a 100 %-write ⟨Lin, Synch⟩ workload for
    the seven architectures, normalized to MINOS-B.

    Paper shape: broadcast or batching alone ≈ no effect; Combined
    (offload+coherence+no-WRLock) −43.3 %; Combined+broadcast ≈ Combined;
    Combined+batching *slower* than Combined (batch unpack); full
    MINOS-O −50.7 %."""
    results = list(zip(ABLATION_CONFIGS, run_ordered(run_experiment, [
        _base(scale, model=LIN_SYNCH, config=arch, write_fraction=1.0)
        for arch in ABLATION_CONFIGS])))
    base = results[0][1]
    rows = []
    for arch, res in results:
        rows.append({
            "arch": arch.name,
            "wlat_us": res.write_latency.mean * 1e6,
            "normalized": res.write_latency.mean /
            base.write_latency.mean,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 13 — sensitivity to the vFIFO/dFIFO size
# ----------------------------------------------------------------------

def fig13(scale: str = "default",
          sizes=(1, 2, 3, 4, 5, 100, None)) -> List[Dict[str, object]]:
    """MINOS-O ⟨Lin, Synch⟩ 50/50 write latency vs FIFO capacity,
    normalized to unlimited entries.  Paper shape: 3-5 entries match
    unlimited."""
    results = list(zip(sizes, run_ordered(run_experiment, [
        _base(scale, model=LIN_SYNCH, config=MINOS_O,
              machine=DEFAULT_MACHINE.with_fifo_entries(entries))
        for entries in sizes])))
    unlimited = next(res for entries, res in results if entries is None)
    rows = []
    for entries, res in results:
        rows.append({
            "fifo_entries": "unlimited" if entries is None else entries,
            "wlat_us": res.write_latency.mean * 1e6,
            "normalized": res.write_latency.mean /
            unlimited.write_latency.mean,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 14 — sensitivity to persist latency, key distribution, DB size
# ----------------------------------------------------------------------

def _speedup(config: ExperimentConfig) -> float:
    """One fig14 point: MINOS-B over MINOS-O mean write latency."""
    baseline = run_experiment(replace(config, config=MINOS_B))
    offload = run_experiment(replace(config, config=MINOS_O))
    return baseline.write_latency.mean / offload.write_latency.mean


def fig14(scale: str = "default") -> List[Dict[str, object]]:
    """Write-latency speedup of MINOS-O over MINOS-B under varying
    persist latency, key distribution, and database size.  Paper shape:
    speedup grows with persist latency (avg 2.2×); ≈2× regardless of
    distribution or database size."""
    records, _requests, _clients = SCALES[scale]
    knobs: List[Tuple[str, str, Dict[str, object]]] = []
    for persist in (ns(100), ns(1295), us(10), us(100)):
        machine = DEFAULT_MACHINE.with_persist_latency(persist)
        knobs.append(("persist_latency", f"{persist * 1e9:g}ns",
                      {"machine": machine}))
    for distribution in ("zipfian", "uniform"):
        knobs.append(("distribution", distribution,
                      {"distribution": distribution}))
    for db in (10, max(records // 2, 10), records * 10):
        knobs.append(("db_size", str(db), {"records": db}))
    speedups = run_ordered(_speedup, [
        _base(scale, model=LIN_SYNCH, **overrides)
        for _knob, _value, overrides in knobs])
    return [{"knob": knob, "value": value, "speedup": speedup}
            for (knob, value, _overrides), speedup in zip(knobs, speedups)]


# ----------------------------------------------------------------------
# Table I — protocol verification
# ----------------------------------------------------------------------

def _verify(point: Tuple) -> Dict[str, object]:
    """One Table I row: model-check ``(offload, model, nodes)``."""
    from repro.verify import ModelChecker, ProtocolSpec, WriteDef

    offload, model, nodes = point
    spec = ProtocolSpec(model=model, nodes=nodes,
                        writes=(WriteDef(0), WriteDef(1)), offload=offload)
    result = ModelChecker(spec).check()
    return {
        "arch": "MINOS-O" if offload else "MINOS-B",
        "model": str(model),
        "states": result.states,
        "transitions": result.transitions,
        "result": "PASS" if result.ok else "FAIL",
    }


def tab1(nodes: int = 2) -> List[Dict[str, object]]:
    """Model-check every ⟨consistency, persistency⟩ model for MINOS-B and
    MINOS-O against the Table I conditions.  Paper result: all pass."""
    return run_ordered(_verify, [(offload, model, nodes)
                                 for offload in (False, True)
                                 for model in ALL_MODELS])
