"""Interprocedural protocol-flow rules (backed by ``analysis.flow``).

These rules consume the shared :class:`~repro.analysis.flow.graph.
FlowGraph` (built once per run via ``project.shared``) and check the
*graph* the engine handlers form, over the per-handler metadata facts
:func:`~repro.analysis.rules.protocol.engine_handlers` extracts:

* **flow-unhandled-message** — a send site emits a msg_type the
  receiving channel's dispatch chain rejects (it would raise
  ``ProtocolError`` at runtime on every such delivery).
* **flow-send-without-timeout** — a coordinator phase waits on an
  ACK-completion event but no path into that phase armed a retransmit
  timer (``watch_retransmits``): a single lost message wedges the
  transaction forever.  Interprocedural upgrade of the robustness
  contract — the wait and the arm usually live in different functions.
* **flow-durable-order** — a ``set_glb_durable`` advance is reachable
  from a client entry point on a path with no durability witness (NVM
  log append / ACK_P-family event wait / VAL-family dispatch test) in
  *any* function along the way.
* **flow-meta-race** — an unmediated raw metadata access (outside the
  WRLock and the FIFO drains) conflicts with another handler's access
  to the same field.  Program and message order only order the steps
  of one write, while the metadata is per key and shared by every
  write to it, so the handlers of two writes to one key interleave
  freely: only the WRLock and the FIFO drains order them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import Project, Rule, rule
from repro.analysis.flow.callgraph import (ARCH_FILES, reachable_from,
                                           successors)
from repro.analysis.flow.graph import FlowGraph, build_flow
from repro.analysis.report import Finding
from repro.analysis.rules.protocol import LOG_APPEND_METHODS, engine_handlers

#: Client API + engine setup: the roots of every protocol path (the
#: receive loops are spawned from ``__init__``).
ENTRY_POINTS = ("__init__", "client_write", "client_read",
                "client_persist")

#: Event attributes whose ``yield`` marks an ack-wait coordinator phase.
ACK_WAIT_EVENTS = ("all_acks", "all_ack_cs", "all_ack_ps")

#: The retransmit-timer registrar.
TIMER_REGISTRAR = "watch_retransmits"


def _flow(project: Project) -> FlowGraph:
    return project.shared("flow", build_flow)


def _ack_wait_lines(node: ast.FunctionDef) -> List[Tuple[str, int]]:
    """``(event, line)`` for every ack-completion wait in *node*."""
    out: List[Tuple[str, int]] = []
    for child in ast.walk(node):
        if not (isinstance(child, ast.Yield) and child.value is not None):
            continue
        for sub in ast.walk(child.value):
            if (isinstance(sub, ast.Attribute)
                    and sub.attr in ACK_WAIT_EVENTS):
                out.append((sub.attr, child.value.lineno))
    return out


@rule
class FlowUnhandledMessageRule(Rule):
    id = "flow-unhandled-message"
    title = "Sent message type with no accepting handler"

    def check(self, project: Project) -> Iterator[Finding]:
        flow = _flow(project)
        for arch in sorted(flow.arches):
            arch_flow = flow.arches[arch]
            for site in arch_flow.sends:
                table = arch_flow.dispatch.get(site.channel)
                info = arch_flow.universe[site.function]
                for msg_type in sorted(site.types.literals):
                    if table is not None and msg_type in table.accepted:
                        continue
                    receiver = (table.loop if table is not None
                                else site.channel)
                    yield Finding(
                        rule=self.id, path=info.path, line=site.line,
                        symbol=f"{info.qualname}",
                        message=f"{msg_type} sent on channel "
                                f"{site.channel!r} is rejected by the "
                                f"receiving dispatch chain ({receiver}) "
                                f"— every delivery raises at runtime")

    def tables(self, project: Project) -> Dict[str, object]:
        flow = _flow(project)
        summary: Dict[str, object] = {}
        for arch in sorted(flow.arches):
            arch_flow = flow.arches[arch]
            summary[arch] = {
                "engine": arch_flow.engine,
                "functions": len(arch_flow.universe),
                "sends": len(arch_flow.sends),
                "channels": {
                    channel: sorted(table.accepted)
                    for channel, table in sorted(
                        arch_flow.dispatch.items())
                },
            }
        return {"protocol_flow": summary}


@rule
class FlowSendWithoutTimeoutRule(Rule):
    id = "flow-send-without-timeout"
    title = "Ack-wait phase with no retransmit timer on any path"

    def check(self, project: Project) -> Iterator[Finding]:
        flow = _flow(project)
        for arch in sorted(flow.arches):
            arch_flow = flow.arches[arch]
            watchers = {edge.caller for edge in arch_flow.edges
                        if edge.callee == TIMER_REGISTRAR}
            adjacency = successors(arch_flow.edges)
            protected = reachable_from(sorted(watchers), adjacency)
            for name in sorted(arch_flow.universe):
                if name == TIMER_REGISTRAR or name in protected:
                    continue
                info = arch_flow.universe[name]
                for event, line in _ack_wait_lines(info.node):
                    yield Finding(
                        rule=self.id, path=info.path, line=line,
                        symbol=info.qualname,
                        message=f"waits on {event} but no path into "
                                f"this phase armed a retransmit timer "
                                f"({TIMER_REGISTRAR}); a lost message "
                                f"wedges the transaction forever")


@rule
class FlowDurableOrderRule(Rule):
    id = "flow-durable-order"
    title = "glb_durableTS advance reachable without durability witness"

    def check(self, project: Project) -> Iterator[Finding]:
        flow = _flow(project)
        for arch in sorted(flow.arches):
            arch_flow = flow.arches[arch]
            handlers = engine_handlers(project)[ARCH_FILES[arch]]
            witnessed: Dict[str, List[int]] = {}
            bearing: Set[str] = set(LOG_APPEND_METHODS)
            for handler in handlers.values():
                lines = (list(handler.durability_witnesses)
                         + list(handler.log_appends))
                witnessed[handler.name] = lines
                if lines:
                    bearing.add(handler.name)
            # Unwitnessed-reachable: BFS from the client entry points
            # that does not expand past a witness-bearing function.
            adjacency = successors(arch_flow.edges)
            unwitnessed: Set[str] = set()
            frontier = [name for name in ENTRY_POINTS
                        if name in arch_flow.universe]
            while frontier:
                current = frontier.pop()
                if current in unwitnessed:
                    continue
                unwitnessed.add(current)
                if current in bearing:
                    continue
                frontier.extend(adjacency.get(current, ()))
            for qualified in sorted(handlers):
                handler = handlers[qualified]
                for access in handler.accesses:
                    if access.via != "set_glb_durable":
                        continue
                    lines = witnessed.get(handler.name, [])
                    if any(line <= access.line for line in lines):
                        continue  # witnessed inside the function itself
                    if handler.name not in unwitnessed:
                        continue  # every inbound path carries a witness
                    yield Finding(
                        rule=self.id, path=handler.path,
                        line=access.line, symbol=qualified,
                        message="glb_durableTS advanced on a path from "
                                "a client entry point with no "
                                "durability witness (NVM log append, "
                                "ACK_P/persist event wait, or VAL-family"
                                " dispatch) in any function along the "
                                "way — violates Table I persistency "
                                "ordering")


@rule
class FlowMetaRaceRule(Rule):
    id = "flow-meta-race"
    title = "Unmediated conflicting metadata accesses"

    def check(self, project: Project) -> Iterator[Finding]:
        flow = _flow(project)
        for arch in sorted(flow.arches):
            handlers = engine_handlers(project)[ARCH_FILES[arch]]
            unmediated = [
                (qualified, handler, access)
                for qualified, handler in sorted(handlers.items())
                for access in handler.accesses
                if access.via == "raw" and access.mediation == "none"
            ]
            for qualified, handler, access in unmediated:
                racing = sorted(
                    other.name
                    for other_name, other in handlers.items()
                    if other_name != qualified
                    and any(a.fieldname == access.fieldname
                            and (a.mode == "write"
                                 or access.mode == "write")
                            for a in other.accesses))
                if not racing:
                    continue
                yield Finding(
                    rule=self.id, path=handler.path, line=access.line,
                    symbol=qualified,
                    message=f"unmediated raw {access.mode} of "
                            f"{access.fieldname} conflicts with "
                            f"{', '.join(racing[:3])}"
                            f"{'…' if len(racing) > 3 else ''}, which "
                            f"another write to the same key can run "
                            f"in between (Table I race)")
