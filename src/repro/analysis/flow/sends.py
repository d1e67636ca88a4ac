"""Send-site and dispatch-table extraction.

**Send sites.**  Every NIC/port send primitive is mapped to a channel:

==========================  ====================
primitive                   channel
==========================  ====================
``nic.host_deposit``        ``net``
``snic.host_deposit``       ``pcie_host_to_snic``
``snic.send_multi``         ``net``
``snic.send_message``       ``net``
``snic.send_to_host``       ``pcie_snic_to_host``
==========================  ====================

The message expression at each site is resolved to a set of ``MsgType``
members by an abstract type-set: ``MsgType.X`` literals,
``Message(type=...)`` constructions, ``self.stamp(...)`` pass-through,
``msg.reply(T, ...)``, and — symbolically — references to function
parameters.  A project-wide fixpoint then flows call-site argument sets
(and receive-side dispatch constraints) into those parameters, so
``_deposit_vals``'s ``type`` parameter resolves to exactly the VAL
variants its callers pass.

**Dispatch tables.**  Receive loops are recognised by their
``yield self.<port>.get()`` pattern and the message variable is chased
through ``packet.payload`` unwrapping.  The handler chain is then walked
with a msg-type constraint set: ``msg.type.is_ack`` group tests (parsed
from the ``messages.py`` member loop, not hardcoded), ``is MsgType.X``
and ``in (MsgType.A, ...)`` comparisons, with ``elif`` complements.  A
``raise`` whose path is type-constrained (and under no other test)
rejects its residual set; a dispatcher with no else-raise (the offload
host loop) is tolerant and accepts everything not explicitly rejected.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Project, dotted_name
from repro.analysis.flow.callgraph import FunctionInfo, is_spawn, own_calls

#: messages.py (parsed for the MsgType vocabulary and its groups).
MESSAGES_FILE = "repro/core/messages.py"

#: Send primitive -> channel, keyed by the trailing ``<obj>.<method>``
#: of the dotted call name.
PRIMITIVES = {
    ("nic", "host_deposit"): "net",
    ("snic", "host_deposit"): "pcie_host_to_snic",
    ("snic", "send_multi"): "net",
    ("snic", "send_message"): "net",
    ("snic", "send_to_host"): "pcie_snic_to_host",
}

#: Receive port (dotted, after ``self.``) -> channel, per architecture.
RECEIVE_PORTS = {
    "baseline": {"host.inbox": "net"},
    "offload": {"host.inbox": "pcie_snic_to_host",
                "snic.from_host": "pcie_host_to_snic",
                "snic.net_inbox": "net"},
}

#: Message-argument position per send primitive method name.
_MSG_ARG = {"host_deposit": 0, "send_multi": 1, "send_message": 1,
            "send_to_host": 0}


# ===========================================================================
# MsgType vocabulary (parsed from messages.py, not hardcoded)
# ===========================================================================

@dataclass
class MsgVocabulary:
    """The MsgType members and their boolean groups (``is_ack``...)."""

    members: Tuple[str, ...]
    groups: Dict[str, FrozenSet[str]]


def load_vocabulary(project: Project) -> MsgVocabulary:
    module = project.module(MESSAGES_FILE)
    if module is None:
        return MsgVocabulary((), {})
    members: List[str] = []
    for info in module.classes:
        if info.name == "MsgType":
            for stmt in info.node.body:
                if (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.targets[0], ast.Name)):
                    members.append(stmt.targets[0].id)
    groups: Dict[str, Set[str]] = {}
    # The member loop: ``_member.is_ack = _member.name in ("ACK", ...)``.
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Attribute)):
            continue
        target = node.targets[0]
        value = node.value
        if (isinstance(value, ast.Compare) and len(value.ops) == 1
                and isinstance(value.ops[0], ast.In)
                and dotted_name(value.left).endswith(".name")
                and isinstance(value.comparators[0], (ast.Tuple, ast.List))):
            names = {element.value for element in value.comparators[0].elts
                     if isinstance(element, ast.Constant)}
            if names <= set(members):
                groups.setdefault(target.attr, set()).update(names)
    return MsgVocabulary(tuple(members),
                         {k: frozenset(v) for k, v in groups.items()})


# ===========================================================================
# Abstract message-type sets
# ===========================================================================

#: A symbolic reference to a function parameter: (function, param name).
ParamRef = Tuple[str, str]


@dataclass(frozen=True)
class TypeSet:
    """Abstract value of a message-typed expression: literal MsgType
    members plus symbolic parameter references (resolved by the global
    fixpoint); ``unknown`` marks contributions the resolver could not
    classify (the set is then a lower bound)."""

    literals: FrozenSet[str] = frozenset()
    params: FrozenSet[ParamRef] = frozenset()
    unknown: bool = False

    def union(self, other: "TypeSet") -> "TypeSet":
        return TypeSet(self.literals | other.literals,
                       self.params | other.params,
                       self.unknown or other.unknown)


EMPTY = TypeSet()
UNKNOWN = TypeSet(unknown=True)


class TypeResolver:
    """Resolve message expressions inside one function."""

    def __init__(self, info: FunctionInfo,
                 env: Dict[str, TypeSet]) -> None:
        self.info = info
        self.env = env

    def resolve(self, node: ast.expr) -> TypeSet:
        dotted = dotted_name(node)
        if dotted.startswith("MsgType."):
            return TypeSet(literals=frozenset({dotted.split(".", 1)[1]}))
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.info.params:
                return TypeSet(params=frozenset({(self.info.name, node.id)}))
            return UNKNOWN
        if isinstance(node, ast.Call):
            func = dotted_name(node.func)
            if func in ("self.stamp", "stamp"):
                return (self.resolve(node.args[0]) if node.args
                        else UNKNOWN)
            if func.endswith("Message") or func == "Message":
                for keyword in node.keywords:
                    if keyword.arg == "type":
                        return self.resolve(keyword.value)
                if node.args:
                    return self.resolve(node.args[0])
                return UNKNOWN
            if func.endswith(".reply"):
                return (self.resolve(node.args[0]) if node.args
                        else UNKNOWN)
            if func.endswith("Envelope"):
                for keyword in node.keywords:
                    if keyword.arg == "payload":
                        return self.resolve(keyword.value)
                return UNKNOWN
        return UNKNOWN


def _function_env(info: FunctionInfo) -> Dict[str, TypeSet]:
    """Name -> TypeSet for local assignments in *info* (iterated to a
    local fixpoint so later-defined helpers still resolve)."""
    env: Dict[str, TypeSet] = {}
    assigns: List[Tuple[str, ast.expr]] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigns.append((target.id, node.value))
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and isinstance(node.target, ast.Name)):
            assigns.append((node.target.id, node.value))
    for _ in range(3):
        resolver = TypeResolver(info, env)
        changed = False
        for name, value in assigns:
            resolved = resolver.resolve(value)
            if resolved != UNKNOWN and env.get(name) != resolved:
                env[name] = resolved
                changed = True
        if not changed:
            break
    return env


# ===========================================================================
# Send sites
# ===========================================================================

@dataclass(frozen=True)
class SendSite:
    """One message-send call site."""

    function: str
    line: int
    channel: str
    types: TypeSet


def extract_sends(universe: Dict[str, FunctionInfo],
                  arch: str) -> List[SendSite]:
    sites: List[SendSite] = []
    for info in universe.values():
        resolver = TypeResolver(info, _function_env(info))
        for call in own_calls(info.node):
            parts = dotted_name(call.func).split(".")
            channel = PRIMITIVES.get(tuple(parts[-2:]))
            if channel is None:
                continue
            if arch == "baseline" and channel != "net":
                continue  # baseline has no SNIC primitives
            index = _MSG_ARG[parts[-1]]
            types = (resolver.resolve(call.args[index])
                     if len(call.args) > index else UNKNOWN)
            sites.append(SendSite(function=info.name, line=call.lineno,
                                  channel=channel, types=types))
    return sites


# ===========================================================================
# Parameter bindings + global fixpoint
# ===========================================================================

@dataclass(frozen=True)
class Binding:
    """One flow of a TypeSet into a function parameter.

    ``passthrough`` marks bare forwarding of the caller's own parameter
    (``self._handle_ack(msg)`` inside a dispatch chain): when a
    dispatch-table constraint binding exists for the same parameter it
    models that flow with type-test precision, and the untyped
    passthrough is dropped (see :func:`prune_bindings`)."""

    param: ParamRef
    value: TypeSet
    passthrough: bool = False


#: Callback registrars: (method name, msg-arg index, callback-arg index).
#: The registrar eventually invokes the callback with the message, so the
#: callback's first parameter receives the registrar's msg argument.
CALLBACK_REGISTRARS = {"watch_retransmits": (1, 2)}


def extract_bindings(universe: Dict[str, FunctionInfo]) -> List[Binding]:
    bindings: List[Binding] = []
    for info in universe.values():
        resolver = TypeResolver(info, _function_env(info))
        for call in own_calls(info.node):
            func_name = dotted_name(call.func)
            target: Optional[ast.Call] = None
            if func_name.startswith("self."):
                callee_name = func_name[len("self."):]
                target = call
            elif is_spawn(func_name):
                inner = call.args[0] if call.args else None
                if (isinstance(inner, ast.Call)
                        and dotted_name(inner.func).startswith("self.")):
                    callee_name = dotted_name(inner.func)[len("self."):]
                    target = inner
                else:
                    continue
            else:
                continue
            callee = universe.get(callee_name)
            if callee is None:
                continue
            # Callback registrar: flow the msg arg into the callback.
            registrar = CALLBACK_REGISTRARS.get(callee_name)
            if registrar is not None:
                msg_index, cb_index = registrar
                if len(target.args) > max(msg_index, cb_index):
                    cb = dotted_name(target.args[cb_index])
                    if cb.startswith("self."):
                        cb_info = universe.get(cb[len("self."):])
                        if cb_info is not None and cb_info.params:
                            bindings.append(Binding(
                                param=(cb_info.name, cb_info.params[0]),
                                value=resolver.resolve(
                                    target.args[msg_index])))
            # Positional + keyword argument binding.  Pure-unknown values
            # are skipped (no member information — they would only wash
            # out the dispatch constraints for the same parameter); bare
            # caller-parameter forwards are kept but tagged for
            # :func:`prune_bindings`.
            for index, arg in enumerate(target.args):
                if index >= len(callee.params):
                    continue
                value = resolver.resolve(arg)
                if value == UNKNOWN:
                    continue
                bindings.append(Binding(
                    param=(callee_name, callee.params[index]), value=value,
                    passthrough=(isinstance(arg, ast.Name)
                                 and arg.id in info.params)))
            for keyword in target.keywords:
                if keyword.arg not in callee.params:
                    continue
                value = resolver.resolve(keyword.value)
                if value == UNKNOWN:
                    continue
                bindings.append(Binding(
                    param=(callee_name, keyword.arg), value=value,
                    passthrough=(isinstance(keyword.value, ast.Name)
                                 and keyword.value.id in info.params)))
    return bindings


def prune_bindings(call_bindings: Sequence[Binding],
                   dispatch_bindings: Sequence[Binding]) -> List[Binding]:
    """Combine call-site and dispatch-constraint bindings, dropping
    untyped parameter passthroughs the dispatch walker already models
    (``_snic_net_handle`` forwarding ``msg`` to ``_snic_on_ack`` under
    ``msg.type.is_ack`` would otherwise re-widen the callee's parameter
    to every type the *caller* can receive)."""
    covered = {binding.param for binding in dispatch_bindings}
    kept = [binding for binding in call_bindings
            if not (binding.passthrough and binding.param in covered)]
    kept.extend(dispatch_bindings)
    return kept


def solve_params(bindings: Sequence[Binding]) -> Dict[ParamRef, TypeSet]:
    """Fixpoint: each parameter's concrete member set."""
    incoming: Dict[ParamRef, List[TypeSet]] = {}
    for binding in bindings:
        incoming.setdefault(binding.param, []).append(binding.value)
    solution: Dict[ParamRef, TypeSet] = {param: EMPTY for param in incoming}
    changed = True
    while changed:
        changed = False
        for param, values in incoming.items():
            merged = solution[param]
            for value in values:
                merged = merged.union(TypeSet(value.literals, frozenset(),
                                              value.unknown))
                for ref in value.params:
                    other = solution.get(ref)
                    if other is not None:
                        merged = merged.union(TypeSet(
                            other.literals, frozenset(), other.unknown))
                    else:
                        merged = merged.union(TypeSet(unknown=True))
            if merged != solution[param]:
                solution[param] = merged
                changed = True
    return solution


def concrete_types(types: TypeSet,
                   solution: Dict[ParamRef, TypeSet]) -> TypeSet:
    """Expand a site's symbolic TypeSet against the parameter solution."""
    literals = set(types.literals)
    unknown = types.unknown
    for ref in types.params:
        resolved = solution.get(ref)
        if resolved is None:
            unknown = True
        else:
            literals |= resolved.literals
            unknown = unknown or resolved.unknown
    return TypeSet(frozenset(literals), frozenset(), unknown)


# ===========================================================================
# Receive-side dispatch
# ===========================================================================

@dataclass
class DispatchTable:
    """Receive behaviour of one channel."""

    channel: str
    loop: str                               #: the receive-loop function
    handlers: Dict[str, Set[str]] = field(default_factory=dict)
    rejected: Set[str] = field(default_factory=set)
    accepted: Set[str] = field(default_factory=set)
    tolerant: bool = True                   #: no else-raise anywhere
    #: Constraint bindings discovered while walking (handler msg params).
    bindings: List[Binding] = field(default_factory=list)


def _receive_loops(universe: Dict[str, FunctionInfo],
                   arch: str) -> Dict[str, str]:
    """channel -> loop function, found by ``yield self.<port>.get()``."""
    ports = RECEIVE_PORTS[arch]
    loops: Dict[str, str] = {}
    for info in universe.values():
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Yield) and node.value is not None):
                continue
            call = node.value
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "get"):
                continue
            port = dotted_name(call.func.value)
            if port.startswith("self."):
                port = port[len("self."):]
            channel = ports.get(port)
            if channel is not None:
                loops[channel] = info.name
    return loops


def _message_vars(info: FunctionInfo) -> Set[str]:
    """Names in *info* bound from a received packet's payload chain."""
    out: Set[str] = set()
    for node in ast.walk(info.node):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if isinstance(value, ast.Yield):
            out.add(target.id)          # packet = yield port.get()
            continue
        for sub in ast.walk(value):
            if isinstance(sub, ast.Attribute) and sub.attr == "payload":
                out.add(target.id)
                break
    return out


class _DispatchWalker:
    """Constraint-set walk over a handler chain."""

    def __init__(self, universe: Dict[str, FunctionInfo],
                 vocabulary: MsgVocabulary, table: DispatchTable) -> None:
        self.universe = universe
        self.vocabulary = vocabulary
        self.table = table
        self.visited: Set[Tuple[str, FrozenSet[str]]] = set()

    def _type_test(self, test: ast.expr,
                   msg_vars: Set[str]) -> Optional[FrozenSet[str]]:
        """The member set a test admits, or None when not a type test."""
        dotted = dotted_name(test)
        for var in msg_vars:
            prefix = f"{var}.type."
            if dotted.startswith(prefix):
                group = self.vocabulary.groups.get(dotted[len(prefix):])
                if group is not None:
                    return group
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left = dotted_name(test.left)
            if not any(left == f"{var}.type" for var in msg_vars):
                return None
            op = test.ops[0]
            comparator = test.comparators[0]
            if isinstance(op, (ast.Is, ast.Eq)):
                member = dotted_name(comparator)
                if member.startswith("MsgType."):
                    return frozenset({member.split(".", 1)[1]})
            elif isinstance(op, ast.In) and isinstance(
                    comparator, (ast.Tuple, ast.List, ast.Set)):
                members = set()
                for element in comparator.elts:
                    name = dotted_name(element)
                    if not name.startswith("MsgType."):
                        return None
                    members.add(name.split(".", 1)[1])
                return frozenset(members)
        return None

    def walk(self, func_name: str, msg_vars: Set[str],
             constraint: FrozenSet[str], has_unknown: bool,
             tested: bool, depth: int = 0) -> None:
        info = self.universe.get(func_name)
        if info is None or depth > 6:
            return
        key = (func_name, constraint)
        if key in self.visited:
            return
        self.visited.add(key)
        self._walk_body(info, info.node.body, msg_vars, constraint,
                        has_unknown, tested, depth)

    def _walk_body(self, info: FunctionInfo, body: Sequence[ast.stmt],
                   msg_vars: Set[str], constraint: FrozenSet[str],
                   has_unknown: bool, tested: bool, depth: int) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If):
                admitted = self._type_test(stmt.test, msg_vars)
                if admitted is not None:
                    then_set = constraint & admitted
                    else_set = constraint - admitted
                    if then_set:
                        self._walk_body(info, stmt.body, msg_vars,
                                        then_set, has_unknown, True, depth)
                    if else_set:
                        self._walk_body(info, stmt.orelse, msg_vars,
                                        else_set, has_unknown, True, depth)
                    continue
                # Any other test (runtime state or the DDP model) makes
                # a raise below it conditional, so not a rejection.
                self._walk_body(info, stmt.body, msg_vars, constraint,
                                True, tested, depth)
                self._walk_body(info, stmt.orelse, msg_vars, constraint,
                                True, tested, depth)
            elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                headers: List[ast.expr] = []
                if isinstance(stmt, ast.For):
                    headers.append(stmt.iter)
                elif isinstance(stmt, ast.While):
                    headers.append(stmt.test)
                else:
                    headers.extend(item.context_expr for item in stmt.items)
                for header in headers:
                    self._scan_calls(info, ast.Expr(value=header),
                                     msg_vars, constraint, depth)
                self._walk_body(info, stmt.body, msg_vars, constraint,
                                has_unknown, tested, depth)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._walk_body(info, block, msg_vars, constraint,
                                    True, tested, depth)
                for handler in stmt.handlers:
                    self._walk_body(info, handler.body, msg_vars,
                                    constraint, True, tested, depth)
            elif isinstance(stmt, ast.Raise):
                if tested and not has_unknown:
                    self.table.rejected |= constraint
                    self.table.tolerant = False
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue
            else:
                self._scan_calls(info, stmt, msg_vars, constraint, depth)

    def _scan_calls(self, info: FunctionInfo, stmt: ast.stmt,
                    msg_vars: Set[str], constraint: FrozenSet[str],
                    depth: int) -> None:
        """Follow calls/spawns that pass a message variable onward."""
        for call in ast.walk(stmt):
            if not isinstance(call, ast.Call):
                continue
            func_name = dotted_name(call.func)
            target = call
            if is_spawn(func_name):
                inner = call.args[0] if call.args else None
                if (isinstance(inner, ast.Call)
                        and dotted_name(inner.func).startswith("self.")):
                    func_name = dotted_name(inner.func)
                    target = inner
                else:
                    continue
            if not func_name.startswith("self."):
                continue
            callee_name = func_name[len("self."):]
            callee = self.universe.get(callee_name)
            if callee is None:
                continue
            passed: List[str] = []
            for index, arg in enumerate(target.args):
                if (isinstance(arg, ast.Name) and arg.id in msg_vars
                        and index < len(callee.params)):
                    passed.append(callee.params[index])
            if not passed:
                continue
            for type_name in constraint:
                self.table.handlers.setdefault(type_name,
                                               set()).add(callee_name)
            for param in passed:
                self.table.bindings.append(Binding(
                    param=(callee_name, param),
                    value=TypeSet(literals=constraint)))
            self.walk(callee_name, set(passed), constraint, False, True,
                      depth + 1)


def extract_dispatch(universe: Dict[str, FunctionInfo],
                     vocabulary: MsgVocabulary,
                     arch: str) -> Dict[str, DispatchTable]:
    """Per-channel dispatch tables for one architecture."""
    tables: Dict[str, DispatchTable] = {}
    all_types = frozenset(vocabulary.members)
    for channel, loop_name in sorted(_receive_loops(universe, arch).items()):
        table = DispatchTable(channel=channel, loop=loop_name)
        info = universe[loop_name]
        walker = _DispatchWalker(universe, vocabulary, table)
        walker.walk(loop_name, _message_vars(info), all_types, False,
                    False)
        table.accepted = set(all_types) - table.rejected
        tables[channel] = table
    return tables
