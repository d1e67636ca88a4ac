"""Protocol automaton assembly and the ``protocol-graph.json`` IR.

This is the top of the flow stack: it combines the call graph
(:mod:`~repro.analysis.flow.callgraph`), the send sites and dispatch
tables (:mod:`~repro.analysis.flow.sends`), and a *model-fact table*
parsed from ``core/model.py`` into one :class:`FlowGraph`, then
projects a per-(consistency, persistency, arch) protocol automaton out
of it: under model M, which message types flow over which channel from
which sender function into which handlers.

The model-fact table is itself derived by AST — the ``DDPModel`` policy
properties are one-line membership tests over the two enums, so a tiny
evaluator computes every property's truth value for each preset
(``LIN_SYNCH`` ... ``EC_EVENT``) without importing the runtime module.

:func:`export_graph` serialises the whole structure as the versioned
``protocol-graph.json`` artifact (:data:`GRAPH_SCHEMA`); the ``flow-*``
lint rules consume the graph and ``repro lint --graph`` exports it.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.core import (ModuleSource, Project, dotted_name,
                                 load_project)
from repro.analysis.flow.callgraph import (ARCH_FILES, BASE_CLASS,
                                           CallSite, FunctionInfo,
                                           GuardParser, build_callgraph,
                                           engine_class_names, eval_guards,
                                           reachable_from, successors)
from repro.analysis.flow.sends import (Binding, DispatchTable,
                                       MsgVocabulary, SendSite, TypeSet,
                                       concrete_types, extract_bindings,
                                       extract_dispatch, extract_sends,
                                       load_vocabulary, prune_bindings,
                                       solve_params)

#: Version tag of the exported protocol-graph JSON document.
GRAPH_SCHEMA = "repro-protocol-graph/1"

#: model.py (parsed for presets and policy properties).
MODEL_FILE = "repro/core/model.py"

#: Client-facing entry points (role roots + explorer roots).
HOST_ROOTS = ("client_write", "client_read", "client_persist",
              "_client_write_eventual", "_dispatch_loop",
              "_host_dispatch_loop")

#: SNIC-side roots: the offload loops plus the FIFO drain callbacks
#: registered via ``snic.start_drains``.
SNIC_ROOTS = ("_snic_host_loop", "_snic_net_loop", "_vfifo_apply",
              "_dfifo_apply")


# ===========================================================================
# Model-fact table (parsed from core/model.py)
# ===========================================================================

@dataclass
class ModelFacts:
    """One DDP model preset with its evaluated policy properties."""

    name: str                     #: preset name (``LIN_SYNCH``)
    consistency: str              #: enum member name
    persistency: str              #: enum member name
    props: Dict[str, bool] = field(default_factory=dict)

    def facts(self) -> Dict[str, object]:
        """The fact dict :func:`~.callgraph.eval_guards` consumes."""
        return {"consistency": self.consistency,
                "persistency": self.persistency, "props": self.props}


def _prop_eval(expr: ast.expr, consistency: str, persistency: str,
               props: Dict[str, bool]) -> Optional[bool]:
    """Evaluate a DDPModel property body under a concrete model."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, bool):
        return expr.value
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        inner = _prop_eval(expr.operand, consistency, persistency, props)
        return None if inner is None else not inner
    if isinstance(expr, ast.BoolOp):
        values = [_prop_eval(v, consistency, persistency, props)
                  for v in expr.values]
        if any(v is None for v in values):
            return None
        return (all(values) if isinstance(expr.op, ast.And)
                else any(values))
    dotted = dotted_name(expr)
    if dotted.startswith("self."):
        return props.get(dotted[len("self."):])
    if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
        left = dotted_name(expr.left)
        subject = {"self.persistency": persistency,
                   "self.consistency": consistency}.get(left)
        if subject is None:
            return None
        op = expr.ops[0]
        comparator = expr.comparators[0]
        if isinstance(op, (ast.Is, ast.Eq, ast.IsNot, ast.NotEq)):
            member = dotted_name(comparator)
            if "." not in member:
                return None
            equal = subject == member.rsplit(".", 1)[1]
            return equal if isinstance(op, (ast.Is, ast.Eq)) else not equal
        if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                comparator, (ast.Tuple, ast.List, ast.Set)):
            members = []
            for element in comparator.elts:
                member = dotted_name(element)
                if "." not in member:
                    return None
                members.append(member.rsplit(".", 1)[1])
            contained = subject in members
            return contained if isinstance(op, ast.In) else not contained
    return None


def _property_bodies(module: ModuleSource) -> Dict[str, ast.expr]:
    """``@property`` return expressions of the DDPModel class."""
    out: Dict[str, ast.expr] = {}
    for info in module.classes:
        if info.name != "DDPModel":
            continue
        for stmt in info.node.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            if not any(dotted_name(d) == "property" or
                       (isinstance(d, ast.Name) and d.id == "property")
                       for d in stmt.decorator_list):
                continue
            for node in stmt.body:
                if isinstance(node, ast.Return) and node.value is not None:
                    out[stmt.name] = node.value
                    break
    return out


def load_model_table(project: Project) -> List[ModelFacts]:
    """Every DDPModel preset in ``model.py`` with evaluated properties,
    in ``ALL_MODELS + EXTENSION_MODELS`` order."""
    module = project.module(MODEL_FILE)
    if module is None:
        return []
    # Module-level aliases: LIN = Consistency.LINEARIZABLE.
    aliases: Dict[str, Tuple[str, str]] = {}
    presets: Dict[str, Tuple[str, str]] = {}
    order: List[str] = []
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        name = stmt.targets[0].id
        dotted = dotted_name(stmt.value)
        if dotted.startswith(("Consistency.", "Persistency.")):
            enum, member = dotted.split(".", 1)
            aliases[name] = (enum.lower(), member)
        elif (isinstance(stmt.value, ast.Call)
                and dotted_name(stmt.value.func).endswith("DDPModel")):
            args: Dict[str, str] = {}
            positions = ("consistency", "persistency")
            for index, arg in enumerate(stmt.value.args):
                if index < len(positions):
                    args[positions[index]] = dotted_name(arg)
            for keyword in stmt.value.keywords:
                if keyword.arg in positions:
                    args[keyword.arg] = dotted_name(keyword.value)
            resolved: Dict[str, str] = {}
            for kind in positions:
                value = args.get(kind, "")
                if "." in value:
                    resolved[kind] = value.rsplit(".", 1)[1]
                elif value in aliases and aliases[value][0] == kind:
                    resolved[kind] = aliases[value][1]
            if len(resolved) == 2:
                presets[name] = (resolved["consistency"],
                                 resolved["persistency"])
        elif name in ("ALL_MODELS", "EXTENSION_MODELS"):
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                for element in stmt.value.elts:
                    if (isinstance(element, ast.Name)
                            and element.id in presets):
                        order.append(element.id)
    for name in presets:
        if name not in order:
            order.append(name)
    bodies = _property_bodies(module)
    table: List[ModelFacts] = []
    for name in order:
        consistency, persistency = presets[name]
        props: Dict[str, bool] = {}
        # Properties may reference each other; iterate to a fixpoint.
        for _ in range(len(bodies) + 1):
            changed = False
            for prop, body in bodies.items():
                if prop in props:
                    continue
                value = _prop_eval(body, consistency, persistency, props)
                if value is not None:
                    props[prop] = value
                    changed = True
            if not changed:
                break
        table.append(ModelFacts(name=name, consistency=consistency,
                                persistency=persistency, props=props))
    return table


# ===========================================================================
# FlowGraph
# ===========================================================================

@dataclass
class ArchFlow:
    """The flow structure of one architecture."""

    arch: str
    module: str                   #: engine module path
    engine: str                   #: engine class name
    universe: Dict[str, FunctionInfo]
    edges: List[CallSite]
    parser_for: Dict[str, GuardParser]
    sends: List[SendSite]
    bindings: List[Binding]       #: call-site + dispatch-constraint flows
    dispatch: Dict[str, DispatchTable]   #: model-agnostic view
    roles: Dict[str, Set[str]]


@dataclass
class FlowGraph:
    """Everything the flow rules and the exporter consume."""

    vocabulary: MsgVocabulary
    models: List[ModelFacts]
    arches: Dict[str, ArchFlow] = field(default_factory=dict)

    def model(self, name: str) -> Optional[ModelFacts]:
        for facts in self.models:
            if facts.name == name:
                return facts
        return None


def _compute_roles(arch: str, universe: Dict[str, FunctionInfo],
                   edges: Sequence[CallSite]) -> Dict[str, Set[str]]:
    roles: Dict[str, Set[str]] = {name: set() for name in universe}
    if arch == "baseline":
        for name in roles:
            roles[name].add("host")
        return roles
    adjacency = successors(edges)
    # ``__init__`` spawns every loop, so it is excluded as a propagation
    # root; the loops themselves carry the role.
    for role, roots in (("host", HOST_ROOTS), ("snic", SNIC_ROOTS)):
        present = [name for name in roots if name in universe]
        for name in reachable_from(present, adjacency):
            if name in roles:
                roles[name].add(role)
    return roles


def build_flow(project: Project) -> FlowGraph:
    """Assemble the full flow graph for both architectures."""
    flow = FlowGraph(vocabulary=load_vocabulary(project),
                     models=load_model_table(project))
    for arch in ARCH_FILES:
        engine_module = project.module(ARCH_FILES[arch])
        if engine_module is None:
            continue
        engines = engine_class_names(engine_module)
        universe, edges, parser_for = build_callgraph(project, arch)
        sends = extract_sends(universe, parser_for, arch)
        bindings = extract_bindings(universe, parser_for)
        dispatch = extract_dispatch(universe, parser_for, flow.vocabulary,
                                    arch, facts=None)
        dispatch_bindings = [binding for table in dispatch.values()
                             for binding in table.bindings]
        bindings = prune_bindings(bindings, dispatch_bindings)
        flow.arches[arch] = ArchFlow(
            arch=arch, module=engine_module.rel,
            engine=sorted(engines)[0] if engines else BASE_CLASS,
            universe=universe, edges=edges, parser_for=parser_for,
            sends=sends, bindings=bindings, dispatch=dispatch,
            roles=_compute_roles(arch, universe, edges))
    return flow


# ===========================================================================
# Per-model automata + export
# ===========================================================================

@dataclass
class Automaton:
    """The protocol automaton of one (model, arch) pair."""

    model: ModelFacts
    arch: str
    #: ``(msg_type, channel, sender fn)`` -> receiving handler names.
    messages: List[Dict[str, object]] = field(default_factory=list)
    unhandled: List[Dict[str, object]] = field(default_factory=list)
    reachable: List[str] = field(default_factory=list)


def build_automaton(flow: FlowGraph, arch: str,
                    model: ModelFacts) -> Automaton:
    """Project the automaton of *model* out of the arch flow."""
    from repro.analysis.flow.explore import explore

    arch_flow = flow.arches[arch]
    facts = model.facts()
    solution = solve_params(arch_flow.bindings, facts)
    dispatch = extract_dispatch(arch_flow.universe, arch_flow.parser_for,
                                flow.vocabulary, arch, facts=facts)
    automaton = Automaton(model=model, arch=arch)
    for site in arch_flow.sends:
        if not eval_guards(site.guards, facts):
            continue
        resolved = concrete_types(site.types, solution)
        table = dispatch.get(site.channel)
        for msg_type in sorted(resolved.literals):
            handlers = sorted(table.handlers.get(msg_type, ())
                              ) if table else []
            edge = {"type": msg_type, "channel": site.channel,
                    "from": site.function, "line": site.line,
                    "sender_role": site.sender_role,
                    "receiver_role": site.receiver_role, "to": handlers}
            automaton.messages.append(edge)
            if table is None or msg_type not in table.accepted:
                automaton.unhandled.append(
                    {"type": msg_type, "channel": site.channel,
                     "from": site.function, "line": site.line})
    automaton.messages.sort(
        key=lambda e: (e["channel"], e["type"], e["from"], e["line"]))
    automaton.unhandled.sort(
        key=lambda e: (e["channel"], e["type"], e["from"], e["line"]))
    result = explore(flow, arch, facts)
    automaton.reachable = sorted(result.reachable)
    return automaton


def _types_dict(types: TypeSet,
                solution: Dict[Tuple[str, str], TypeSet]) -> Dict[str, object]:
    resolved = concrete_types(types, solution)
    return {"resolved": sorted(resolved.literals),
            "unknown": resolved.unknown}


def export_graph(flow: FlowGraph) -> Dict[str, object]:
    """The versioned ``protocol-graph.json`` document."""
    document: Dict[str, object] = {
        "schema": GRAPH_SCHEMA,
        "msg_types": sorted(flow.vocabulary.members),
        "msg_groups": {name: sorted(members) for name, members
                       in sorted(flow.vocabulary.groups.items())},
        "models": [{"name": m.name, "consistency": m.consistency,
                    "persistency": m.persistency,
                    "props": dict(sorted(m.props.items()))}
                   for m in flow.models],
        "arches": {},
    }
    for arch in sorted(flow.arches):
        arch_flow = flow.arches[arch]
        solution = solve_params(arch_flow.bindings, facts=None)
        calls: Dict[str, Dict[str, List[str]]] = {}
        for edge in arch_flow.edges:
            bucket = calls.setdefault(edge.caller, {})
            bucket.setdefault(edge.kind, [])
            if edge.callee not in bucket[edge.kind]:
                bucket[edge.kind].append(edge.callee)
        functions = {
            name: {
                "qualname": info.qualname,
                "path": info.path,
                "line": info.line,
                "roles": sorted(arch_flow.roles.get(name, ())) or
                         ["internal"],
                "calls": sorted(calls.get(name, {}).get("call", [])),
                "spawns": sorted(calls.get(name, {}).get("spawn", [])),
                "refs": sorted(calls.get(name, {}).get("ref", [])),
            }
            for name, info in sorted(arch_flow.universe.items())
        }
        channels = {
            channel: {
                "loop": table.loop,
                "accepted": sorted(table.accepted),
                "rejected": sorted(table.rejected),
                "tolerant": table.tolerant,
                "handlers": {msg_type: sorted(handlers) for msg_type,
                             handlers in sorted(table.handlers.items())},
            }
            for channel, table in sorted(arch_flow.dispatch.items())
        }
        sends = [
            {"function": site.function, "line": site.line,
             "channel": site.channel, "primitive": site.primitive,
             "sender_role": site.sender_role,
             "receiver_role": site.receiver_role,
             "types": _types_dict(site.types, solution)}
            for site in sorted(arch_flow.sends,
                               key=lambda s: (s.function, s.line))
        ]
        models = {}
        for model in flow.models:
            automaton = build_automaton(flow, arch, model)
            models[model.name] = {
                "messages": automaton.messages,
                "unhandled": automaton.unhandled,
                "reachable": automaton.reachable,
            }
        document["arches"][arch] = {
            "module": arch_flow.module,
            "engine": arch_flow.engine,
            "functions": functions,
            "channels": channels,
            "sends": sends,
            "models": models,
        }
    return document


def extract_protocol_graph(
        root: Union[str, Path, None] = None) -> Dict[str, object]:
    """Convenience: load the project at *root* (auto-discovered when
    ``None``) and export its protocol graph."""
    from repro.analysis.core import find_project_root

    resolved = find_project_root(root)
    project = load_project(resolved, paths=["src/repro"])
    return export_graph(build_flow(project))


def write_graph(flow: FlowGraph, path: Union[str, Path]) -> None:
    """Serialise :func:`export_graph` to *path* (pretty, stable order)."""
    document = export_graph(flow)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=False)
                          + "\n", encoding="utf-8")
