"""Bucket a cProfile run into the ledger's layers.

Input is the ``stats`` mapping of :class:`pstats.Stats`:
``{(file, line, func): (cc, nc, tt, ct, callers)}`` with
``callers = {(file, line, func): (cc, nc, tt, ct)}``.  Every code
object lands in exactly one layer, so the self-time shares sum to 1.
"""

from __future__ import annotations

from spec import LAYERS

#: Source path fragment -> layer, first match wins (specific first).
_PATH_RULES = (
    ("/repro/sim/kernel.py", "sim.kernel"),
    ("/repro/sim/process.py", "sim.process"),
    ("/repro/sim/events.py", "sim.events"),
    ("/repro/sim/resources.py", "sim.resources"),
    ("/repro/sim/network.py", "sim.network"),
    ("/repro/hw/nic.py", "hw.nic"),
    ("/repro/hw/smartnic.py", "hw.smartnic"),
    ("/repro/hw/host.py", "hw.host"),
    ("/repro/hw/memory.py", "hw.memory"),
    ("/repro/core/engine.py", "core.engine"),
    ("/repro/core/baseline/", "core.baseline"),
    ("/repro/core/offload/", "core.offload"),
    ("/repro/core/recovery.py", "core.recovery"),
    ("/repro/core/", "core.meta"),
    ("/repro/kv/", "kv"),
    ("/repro/cluster/", "cluster"),
    ("/repro/workloads/", "workloads"),
    ("/repro/metrics/", "metrics"),
    ("/repro/obs/", "obs"),
    ("/repro/faults/", "faults"),
    ("/repro/check/", "check"),
    ("/repro/ckpt/", "ckpt"),
    ("/repro/compile/", "compile"),
)


def layer_of(filename: str) -> str:
    """The layer that owns code from *filename* (a ``co_filename``)."""
    if filename.startswith("<repro.compile:"):
        # Handlers the protocol compiler generated at cluster build.
        return "core.compiled"
    path = filename.replace("\\", "/")
    for fragment, layer in _PATH_RULES:
        if fragment in path:
            return layer
    return "other"


def _is_builtin(func: tuple) -> bool:
    # cProfile labels C functions ("~", 0, "<built-in method ...>").
    return func[0] == "~"


def layer_table(stats: dict) -> dict:
    """``{layer: {"self_s": float, "calls": int}}`` over all LAYERS.

    A C builtin (``heappush``, ``generator.send``, ``list.append``) has
    no file of its own: its self-time is charged to the layer of each
    *caller*, split exactly as the profiler's caller table recorded it.
    ``calls`` counts calls of the layer's own Python functions.
    """
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if not _is_builtin(func):
            row = table[layer_of(func[0])]
            row["self_s"] += tottime
            row["calls"] += ncalls
            continue
        charged = 0.0
        for caller, (_c, _n, caller_tt, _t) in callers.items():
            layer = "other" if _is_builtin(caller) else layer_of(caller[0])
            table[layer]["self_s"] += caller_tt
            charged += caller_tt
        # A builtin entered from outside the profile has no caller row.
        table["other"]["self_s"] += tottime - charged
    return table


def calls_of(stats: dict, file_fragment: str, funcname: str) -> int:
    """Total calls of the function *funcname* defined in a file whose
    path contains *file_fragment*."""
    return sum(entry[1] for func, entry in stats.items()
               if func[2] == funcname
               and file_fragment in func[0].replace("\\", "/"))
