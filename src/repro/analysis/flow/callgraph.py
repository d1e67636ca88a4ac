"""Module-spanning call graph of the protocol engines.

The *function universe* of an architecture is the union of
``EngineBase``'s methods (``core/engine.py``) and the engine class's own
methods (``core/baseline/engine.py`` or ``core/offload/engine.py``),
with the engine's definition winning on an override (``record_size``).

Three edge kinds are extracted:

* ``call``  — ``self.X(...)`` / ``yield from self.X(...)``
* ``spawn`` — ``self.sim.spawn(self.X(...), ...)`` (a new process)
* ``ref``   — a bare ``self.X`` passed as a callback argument
  (``watch_retransmits(txn, msg, self._resend)``,
  ``snic.start_drains(self._vfifo_apply, ...)``)

The graph is model-agnostic: an edge under ``if self.model.<prop>:`` is
an edge, as is one under a runtime condition.  That over-approximates
reachability for any single DDP model and never under-approximates it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.analysis.core import ModuleSource, Project, dotted_name

#: Engine module per architecture (``ModuleSource.package_rel`` paths).
ARCH_FILES = {
    "baseline": "repro/core/baseline/engine.py",
    "offload": "repro/core/offload/engine.py",
}

#: The shared base-class module both architectures inherit from.
BASE_FILE = "repro/core/engine.py"

#: The shared base class name.
BASE_CLASS = "EngineBase"


@dataclass
class FunctionInfo:
    """One method of the engine universe."""

    name: str
    qualname: str                 #: ``Class.method``
    path: str                     #: repo-relative path of the definition
    line: int
    node: ast.FunctionDef
    params: Tuple[str, ...]       #: positional params, ``self`` stripped


@dataclass(frozen=True)
class CallSite:
    """One call / spawn / callback-ref edge in the graph."""

    caller: str
    callee: str
    kind: str                     #: ``"call"`` | ``"spawn"`` | ``"ref"``
    line: int


def _method_defs(module: ModuleSource, class_names: Sequence[str],
                 ) -> Iterator[Tuple[str, ast.FunctionDef]]:
    for info in module.classes:
        if info.name in class_names:
            for stmt in info.node.body:
                if isinstance(stmt, ast.FunctionDef):
                    yield info.name, stmt


def engine_class_names(module: ModuleSource) -> List[str]:
    """Engine classes defined in *module*: EngineBase subclasses or
    ``*Engine`` names (the protocol rule's metadata scan uses it too)."""
    return [info.name for info in module.classes
            if BASE_CLASS in info.bases or info.name.endswith("Engine")]


def build_universe(project: Project, arch: str) -> Dict[str, FunctionInfo]:
    """The method universe of *arch*: EngineBase methods overlaid with
    the engine class's own (engine definition wins on a clash)."""
    universe: Dict[str, FunctionInfo] = {}
    layers = [(BASE_FILE, [BASE_CLASS]), (ARCH_FILES[arch], None)]
    for rel, class_names in layers:
        module = project.module(rel)
        if module is None:
            continue
        names = (class_names if class_names is not None
                 else engine_class_names(module))
        for class_name, node in _method_defs(module, names):
            params = tuple(arg.arg for arg in node.args.args
                           if arg.arg != "self")
            universe[node.name] = FunctionInfo(
                name=node.name, qualname=f"{class_name}.{node.name}",
                path=module.rel, line=node.lineno, node=node,
                params=params)
    return universe


def own_calls(func: ast.FunctionDef) -> Iterator[ast.Call]:
    """Every call in *func*'s body, nested def/class scopes excluded
    (they are separate functions)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def is_spawn(func_name: str) -> bool:
    """``sim.spawn(...)`` / ``self.sim.spawn(...)``."""
    return func_name.endswith("sim.spawn")


def extract_edges(universe: Dict[str, FunctionInfo]) -> List[CallSite]:
    """Every call / spawn / ref edge inside the universe."""
    edges: List[CallSite] = []
    for info in universe.values():
        for call in own_calls(info.node):
            func_name = dotted_name(call.func)
            if is_spawn(func_name):
                for arg in call.args:
                    if (isinstance(arg, ast.Call)
                            and dotted_name(arg.func).startswith("self.")):
                        callee = dotted_name(arg.func)[len("self."):]
                        if callee in universe:
                            edges.append(CallSite(
                                caller=info.name, callee=callee,
                                kind="spawn", line=call.lineno))
                continue
            if func_name.startswith("self."):
                callee = func_name[len("self."):]
                if callee in universe:
                    edges.append(CallSite(
                        caller=info.name, callee=callee, kind="call",
                        line=call.lineno))
            for arg in call.args:
                if isinstance(arg, ast.Attribute) and not isinstance(
                        arg.ctx, ast.Store):
                    ref = dotted_name(arg)
                    if ref.startswith("self."):
                        callee = ref[len("self."):]
                        if callee in universe:
                            edges.append(CallSite(
                                caller=info.name, callee=callee,
                                kind="ref", line=call.lineno))
    return edges


def successors(edges: Sequence[CallSite]) -> Dict[str, Set[str]]:
    """Adjacency map of the graph."""
    out: Dict[str, Set[str]] = {}
    for edge in edges:
        out.setdefault(edge.caller, set()).add(edge.callee)
    return out


def reachable_from(roots: Sequence[str],
                   adjacency: Dict[str, Set[str]]) -> Set[str]:
    """Transitive closure (roots included)."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(adjacency.get(current, ()))
    return seen
