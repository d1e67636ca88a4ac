"""Exporters: Chrome trace-event JSON (Perfetto / ``chrome://tracing``),
a line-delimited JSON (JSONL) stream, and a plain-text swim-lane
timeline.

The Chrome format is the de-facto interchange for span timelines: a
top-level object with a ``traceEvents`` list of events, each carrying a
phase tag ``ph`` — ``"X"`` complete events (``ts`` + ``dur``, both in
**microseconds**), ``"i"`` instants, ``"C"`` counter tracks, ``"M"``
metadata (process/thread names).  We map nodes to processes (``pid``)
and lanes to threads (``tid``), so Perfetto renders one swim-lane group
per node with the operation row above the phase rows.

:func:`validate_chrome_trace` is the structural check the regression
tests and the CLI run on every export: it returns a list of problems
(empty means loadable) rather than raising, so callers can report all
defects at once.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Tuple

from repro.obs.spans import LANE_OPS

#: seconds -> Chrome trace microseconds.
_US = 1e6

#: Display rows inside one node's process group; the op row sorts first.
_LANE_TIDS = {LANE_OPS: 0, "phases": 1, "snic": 2, "net": 3}
_COUNTER_TID = 9

#: Event phases the validator accepts (the subset we emit).
_KNOWN_PHASES = {"X", "i", "C", "M"}


def _node_label(node: int) -> str:
    return f"node{node}" if node >= 0 else "fabric"


def _lane_tid(lane: str) -> int:
    return _LANE_TIDS.get(lane, 1)


def chrome_trace(obs) -> Dict[str, Any]:
    """Render *obs* (an :class:`repro.obs.Observability`) as a Chrome
    trace-event object ready for ``json.dump``."""
    events: List[Dict[str, Any]] = []
    lanes_by_node: Dict[int, set] = {}

    def lane_used(node: int, lane: str) -> None:
        lanes_by_node.setdefault(node, set()).add(lane)

    for span in obs.spans.values():
        lane_used(span.node, LANE_OPS)
        end = span.end if span.end is not None else span.start
        events.append({
            "name": f"{span.kind} {span.key}" if span.key is not None
                    else span.kind,
            "cat": f"op,{span.kind}",
            "ph": "X",
            "ts": span.start * _US,
            "dur": (end - span.start) * _US,
            "pid": span.node,
            "tid": _lane_tid(LANE_OPS),
            "args": {"op_id": span.op_id,
                     "status": span.status or "open",
                     "key": None if span.key is None else str(span.key)},
        })
    for segment in obs.segments:
        lane_used(segment.node, segment.lane)
        args = {key: _jsonable(value) for key, value in segment.attrs}
        args["op_id"] = segment.op_id
        events.append({
            "name": segment.phase,
            "cat": f"phase,{segment.lane}",
            "ph": "X",
            "ts": segment.start * _US,
            "dur": segment.duration * _US,
            "pid": segment.node,
            "tid": _lane_tid(segment.lane),
            "args": args,
        })
    for instant in obs.instants:
        lane_used(instant.node, LANE_OPS)
        args = {key: _jsonable(value) for key, value in instant.attrs}
        if instant.op_id is not None:
            args["op_id"] = instant.op_id
        events.append({
            "name": instant.name,
            "cat": "instant",
            "ph": "i",
            "s": "p",
            "ts": instant.time * _US,
            "pid": instant.node,
            "tid": _lane_tid(LANE_OPS),
            "args": args,
        })
    for node, registry in sorted(obs.registries().items()):
        for name in registry.gauge_names():
            lane_used(node, LANE_OPS)
            for time, value in registry.gauge_samples(name):
                events.append({
                    "name": name,
                    "ph": "C",
                    "ts": time * _US,
                    "pid": node,
                    "tid": _COUNTER_TID,
                    "args": {name: value},
                })
    metadata: List[Dict[str, Any]] = []
    for node in sorted(lanes_by_node):
        metadata.append({
            "name": "process_name", "ph": "M", "pid": node, "ts": 0,
            "args": {"name": _node_label(node)},
        })
        for lane in sorted(lanes_by_node[node]):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": node,
                "tid": _lane_tid(lane), "ts": 0, "args": {"name": lane},
            })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs", "format": "repro-obs/1"},
    }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def write_chrome_trace(obs, path: str) -> dict:
    """Write the Chrome trace for *obs* to *path*; returns the payload
    (so callers can :func:`validate_chrome_trace` what was written)."""
    payload = chrome_trace(obs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


# -- JSONL ------------------------------------------------------------------


def jsonl_events(obs) -> Iterator[str]:
    """One JSON object per line: a header, then every span, segment,
    instant, and per-node counter snapshot, in record order."""
    yield json.dumps({"type": "meta", "format": "repro-obs/1",
                      "spans": len(obs.spans),
                      "segments": len(obs.segments),
                      "instants": len(obs.instants)})
    for span in obs.spans.values():
        yield json.dumps({
            "type": "span", "op_id": span.op_id, "node": span.node,
            "kind": span.kind, "key": _jsonable(span.key),
            "start_s": span.start, "end_s": span.end,
            "status": span.status})
    for segment in obs.segments:
        yield json.dumps({
            "type": "segment", "op_id": segment.op_id,
            "node": segment.node, "phase": segment.phase,
            "lane": segment.lane, "start_s": segment.start,
            "end_s": segment.end,
            "attrs": {key: _jsonable(value)
                      for key, value in segment.attrs}})
    for instant in obs.instants:
        yield json.dumps({
            "type": "instant", "node": instant.node, "name": instant.name,
            "op_id": instant.op_id, "time_s": instant.time,
            "attrs": {key: _jsonable(value)
                      for key, value in instant.attrs}})
    for node, registry in sorted(obs.registries().items()):
        yield json.dumps({"type": "metrics", "node": node,
                          **registry.to_dict()})


def write_jsonl(obs, path: str) -> int:
    """Write the JSONL stream for *obs* to *path*; returns the number of
    records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in jsonl_events(obs):
            handle.write(line)
            handle.write("\n")
            count += 1
    return count


# -- text timeline ----------------------------------------------------------

#: Character width of one node's lane in :func:`timeline`.
_CELL = 24


def timeline(obs) -> str:
    """A per-node swim-lane rendering of *obs*: one row per operation
    begin/end (``write:start`` ... ``write:complete``), per protocol
    phase (its name and duration, at its start time) and per instant
    (``fault.drop``, ``durable_advance``, ...), in time order (record
    order on ties) and in the node's column."""
    rows: List[Tuple[float, int, str]] = []
    for span in obs.spans.values():
        rows.append((span.start, span.node, f"{span.kind}:start"))
        if span.end is not None:
            status = "complete" if span.status == "ok" else span.status
            rows.append((span.end, span.node, f"{span.kind}:{status}"))
    for segment in obs.segments:
        rows.append((segment.start, segment.node,
                     f"{segment.phase} {segment.duration * _US:.2f}us"))
    for instant in obs.instants:
        rows.append((instant.time, instant.node, instant.name))
    if not rows:
        return "(no events)"
    rows.sort(key=lambda row: row[:2])
    nodes = sorted({node for _time, node, _label in rows})
    lane = {node: index for index, node in enumerate(nodes)}
    header = f"{'time (us)':>12s}  " + "  ".join(
        f"{'node ' + str(node) if node >= 0 else 'fabric':<{_CELL}s}"
        for node in nodes)
    lines = [header.rstrip(), "-" * len(header)]
    blank = [" " * _CELL] * len(nodes)
    for time, node, label in rows:
        cells = list(blank)
        cells[lane[node]] = f"{label[:_CELL]:<{_CELL}s}"
        lines.append((f"{time * _US:12.3f}  " + "  ".join(cells)).rstrip())
    return "\n".join(lines)


# -- validation -------------------------------------------------------------


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural validation of a Chrome trace-event payload.

    Returns a list of human-readable problems; an empty list means the
    payload is loadable by Perfetto / ``chrome://tracing``.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as error:
        problems.append(f"payload is not JSON-serializable: {error}")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if "name" not in event:
            problems.append(f"{where}: missing 'name'")
        if "pid" not in event:
            problems.append(f"{where}: missing 'pid'")
        if phase in ("X", "i", "C"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: non-numeric 'ts' {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: non-numeric 'dur' {dur!r}")
            elif dur < 0:
                problems.append(f"{where}: negative 'dur' {dur!r}")
        if phase == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event needs an 'args' dict")
    return problems
