"""No module-level mutable caches anywhere in :mod:`repro`.

A module-global dict/list/set that functions write into (the classic
``_cache = {}`` memo) is shared mutable state with process lifetime:

* it survives across cluster runs inside one process, so back-to-back
  experiments are not independent (the second run starts warm);
* it is inherited by forked workers, so the figure-sweep pool
  (:mod:`repro.bench.pool`) would hand each worker a copy whose
  contents depend on what the parent process happened to compute first
  — an invisible input that serial ≡ pooled equivalence cannot
  tolerate.

Everything under ``repro/`` either feeds the deterministic event
calendar or post-processes its outputs, so the pattern is banned
tree-wide (it started in ``repro/workloads`` and was widened once the
rest of the tree was clean).  The sanctioned alternatives are a *bounded*
``functools.lru_cache`` on a pure function (see
:func:`repro.workloads.zipfian.zeta` — cost-only memoization, and the
decorator makes the cache's identity explicit) or instance-level state
owned by the object whose lifetime it should share.

The rule flags a module-level name bound to a mutable container
(literal, comprehension, or ``dict()``/``list()``/``set()``-style
constructor, including ``collections`` containers) **that some
function or method in the same module mutates** — by subscript or
attribute-method mutation (``x[k] = v``, ``x.append(...)``, ...) or by
rebinding through a ``global`` declaration.  Module-level containers
that are only ever read (workflow tables, constant maps) are fine and
are not reported.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Union

from repro.analysis.core import (ModuleSource, Project, Rule,
                                 enclosing_symbol, rule)
from repro.analysis.report import Finding

#: Subsystems where the module-mutable-cache pattern is banned.
CACHE_FREE_SUBSYSTEMS = ("repro/",)

#: Constructor names whose result is a mutable container.
MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray",
    "defaultdict", "OrderedDict", "Counter", "deque", "ChainMap",
}

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "add", "update", "setdefault", "extend", "insert",
    "remove", "discard", "pop", "popitem", "clear", "appendleft",
    "extendleft", "sort", "reverse",
}


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        return name in MUTABLE_CONSTRUCTORS
    return False


def _module_level_containers(tree: ast.Module) -> Dict[str, ast.stmt]:
    """Top-level names bound to mutable container values."""
    containers: Dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name) and _is_mutable_container(value):
            containers[target.id] = stmt
    return containers


def _receiver_name(node: ast.expr) -> str:
    """The base :class:`ast.Name` of ``x[...]`` / ``x.m`` chains."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


class _MutationScanner(ast.NodeVisitor):
    """Find in-function mutations of the given module-level names.

    Local shadowing is respected per function: a function that binds the
    name itself (parameter or plain assignment, without ``global``) is
    mutating its own local, not the module cache.
    """

    def __init__(self, names: Set[str]) -> None:
        self.names = names
        #: (name, mutating node) pairs, first mutation per name wins.
        self.mutations: Dict[str, ast.AST] = {}
        self._shadowed: List[Set[str]] = []

    def _targets(self, name: str) -> bool:
        return (name in self.names
                and not any(name in scope for scope in self._shadowed))

    def _record(self, name: str, node: ast.AST) -> None:
        if self._targets(name):
            self.mutations.setdefault(name, node)

    def _visit_function(self, node: Union[ast.FunctionDef,
                                          ast.AsyncFunctionDef]) -> None:
        declared_global: Set[str] = set()
        bound: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
        for arg_list in (node.args.args, node.args.posonlyargs,
                         node.args.kwonlyargs):
            bound.update(arg.arg for arg in arg_list)
        # A ``global`` rebinding *is* a module-state mutation.
        for name in declared_global:
            self._record(name, node)
        self._shadowed.append((bound | declared_global) - declared_global)
        self.generic_visit(node)
        self._shadowed.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record(_receiver_name(target), node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self._record(_receiver_name(node.target), node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record(_receiver_name(target), node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS):
            self._record(_receiver_name(func.value), node)
        self.generic_visit(node)


def _module_cache_findings(module: ModuleSource) -> Iterator[Finding]:
    containers = _module_level_containers(module.tree)
    if not containers:
        return
    scanner = _MutationScanner(set(containers))
    # Only function bodies can mutate "later": top-level statements run
    # once at import and are part of building the constant.
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scanner.visit(stmt)
    for name, mutator in sorted(scanner.mutations.items()):
        decl = containers[name]
        where = enclosing_symbol(module, mutator)
        yield Finding(
            rule="no-module-mutable-cache", path=module.rel,
            line=decl.lineno, symbol=name,
            message=(f"module-level mutable container {name!r} is mutated "
                     f"by {where or 'a function'} (line "
                     f"{getattr(mutator, 'lineno', '?')}); process-lifetime "
                     f"caches leak state across runs and into forked sweep "
                     f"workers — use a bounded functools.lru_cache or "
                     f"instance state instead"))


@rule
class ModuleMutableCacheRule(Rule):
    id = "no-module-mutable-cache"
    title = "no function-mutated module-level containers"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules_under(*CACHE_FREE_SUBSYSTEMS):
            yield from _module_cache_findings(module)
