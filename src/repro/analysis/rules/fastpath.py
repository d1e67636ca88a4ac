"""Fast-path / slow-path parity.

The hot paths carry guarded observer arms of the shape

.. code-block:: python

    if self.obs is not None:
        self.obs.instant(...)      # observer-only arm
    ...                            # state changes happen unconditionally

and forked delivery paths like :meth:`Port._deliver`, where the
fault-injector arm and the plain arm must make the *same* state
transitions (schedule the same deliveries, update the same counters) and
differ only in what the observer sees.  A fast path that also mutates
simulator state silently diverges the observed run from the unobserved
one — the worst kind of heisenbug for a determinism-critical simulator.

Two statically checkable shapes:

* **fastpath-observer-effect** — an ``if <guard> is not None:`` block
  with *no* else whose guard is an observability attribute (``obs``,
  ``fault_injector``, ``injector``) must be observer-only: every
  statement is a call on the guard object, an observation call (see
  :data:`OBSERVER_CALLS`), or a local binding feeding one.  Any
  attribute store or non-observer call inside the arm changes state
  only when the observer is attached.
* **fastpath-divergent-fork** — an ``if``/``else`` (or guarded early
  ``return``) on such a guard where the two arms' *effect sets* (dotted
  names of non-observer calls + attributes stored) differ.  Both arms
  must drive the same state-mutation helpers (e.g. both arms of
  ``Port._deliver`` call ``self._schedule_deliveries``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.core import (ModuleSource, Project, Rule, dotted_name,
                                 rule, walk_functions)
from repro.analysis.report import Finding

#: Attribute names whose presence gates an observability fast path.
OBSERVER_GUARDS = ("fault_injector", "injector", "obs")

#: Call names that are pure observation (allowed in a guarded arm).
OBSERVER_CALLS = {"record", "observe", "note", "log", "emit", "append",
                  "isoformat"}

#: Side-effect-free builtins: fine as argument plumbing in a guarded arm
#: (e.g. ``self.obs.gauge(..., float(len(self.vfifo)))``).
PURE_BUILTINS = {"len", "float", "int", "str", "bool", "abs", "min", "max",
                 "round", "sorted", "tuple", "getattr"}

#: Subsystems the parity rules patrol.
FASTPATH_SUBSYSTEMS = ("repro/sim", "repro/core", "repro/hw")


def _guard_name(test: ast.expr) -> Optional[str]:
    """The guard variable of an ``X is not None`` / bare-``X`` test when
    ``X`` is an observer attribute; ``None`` otherwise."""
    candidate: Optional[ast.expr] = None
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.IsNot, ast.Is))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        candidate = test.left
    elif isinstance(test, (ast.Attribute, ast.Name)):
        candidate = test
    if candidate is None:
        return None
    dotted = dotted_name(candidate)
    tail = dotted.rsplit(".", 1)[-1] if dotted else ""
    return dotted if tail in OBSERVER_GUARDS else None


def _is_negated_guard(test: ast.expr) -> Optional[str]:
    """``X is None`` / ``not X`` form (guard inverted)."""
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        dotted = dotted_name(test.left)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        return dotted if tail in OBSERVER_GUARDS else None
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _guard_name(test.operand)
    return None


def _effects(statements: Sequence[ast.stmt], guard: str,
             ) -> Tuple[Set[str], Set[str], bool]:
    """``(calls, stores, observer_only)`` for a statement suite.

    *calls* holds dotted names of calls that are not observation (not on
    the guard object, not in :data:`OBSERVER_CALLS`, and not receiving
    the guard as an argument); *stores* holds dotted attribute-store
    targets.  *observer_only* is True when the suite has no effects
    beyond observation and local bindings.
    """
    calls: Set[str] = set()
    stores: Set[str] = set()
    observer_only = True
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if not target:
                    continue
                if target.startswith(guard + "."):
                    continue  # a method on the observer itself
                if "." not in target and target in PURE_BUILTINS:
                    continue
                tail = target.rsplit(".", 1)[-1]
                if tail in OBSERVER_CALLS:
                    continue
                if any(dotted_name(arg) == guard for arg in node.args):
                    continue  # observer handed to a helper
                calls.add(target)
                observer_only = False
            elif isinstance(node, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target_node in targets:
                    elements = (target_node.elts
                                if isinstance(target_node, ast.Tuple)
                                else [target_node])
                    for element in elements:
                        if isinstance(element, ast.Attribute):
                            stores.add(dotted_name(element))
                            observer_only = False
            elif isinstance(node, (ast.Raise, ast.Delete)):
                observer_only = False
    return calls, stores, observer_only


def _ends_in_jump(statements: Sequence[ast.stmt]) -> bool:
    return bool(statements) and isinstance(
        statements[-1], (ast.Return, ast.Continue, ast.Break, ast.Raise))


def _tail_after(body: Sequence[ast.stmt], index: int) -> List[ast.stmt]:
    return list(body[index + 1:])


class _FunctionChecker:
    def __init__(self, module: ModuleSource, qualname: str) -> None:
        self.module = module
        self.qualname = qualname
        self.findings: List[Finding] = []

    def check(self, node: Union[ast.FunctionDef,
                                ast.AsyncFunctionDef]) -> None:
        self._check_suite(node.body)

    def _check_suite(self, body: Sequence[ast.stmt]) -> None:
        for index, statement in enumerate(body):
            if isinstance(statement, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue  # separate walk_functions entries
            if isinstance(statement, ast.If):
                self._check_if(statement, body, index)
                continue
            for attr in ("body", "orelse", "finalbody"):
                nested = getattr(statement, attr, None)
                if nested:
                    self._check_suite(nested)
            for handler in getattr(statement, "handlers", ()):
                self._check_suite(handler.body)

    def _check_if(self, node: ast.If, parent: Sequence[ast.stmt],
                  index: int) -> None:
        guard = _guard_name(node.test)
        negated = _is_negated_guard(node.test)
        if guard is not None and node.orelse:
            self._compare_arms(node, guard, node.body, node.orelse)
        elif guard is not None and _ends_in_jump(node.body):
            # ``if injector is not None: ...; return`` — the slow path
            # is the statement tail after the if.
            self._compare_arms(node, guard, node.body,
                               _tail_after(parent, index))
        elif guard is not None:
            calls, stores, observer_only = _effects(node.body, guard)
            if not observer_only:
                effects = sorted(stores | calls)
                self.findings.append(Finding(
                    rule="fastpath-observer-effect", path=self.module.rel,
                    line=node.lineno, symbol=self.qualname,
                    message=f"guarded arm on {guard} mutates state "
                            f"({', '.join(effects[:3])}); observer "
                            f"guards must be effect-free or have a "
                            f"state-equivalent slow path"))
        elif negated is not None and node.orelse:
            self._compare_arms(node, negated, node.orelse, node.body)
        # Recurse into both arms for nested forks.
        self._check_suite(node.body)
        self._check_suite(node.orelse)

    def _compare_arms(self, node: ast.If, guard: str,
                      fast: Sequence[ast.stmt],
                      slow: Sequence[ast.stmt]) -> None:
        fast_calls, fast_stores, fast_observer = _effects(fast, guard)
        slow_calls, slow_stores, _ = _effects(slow, guard)
        if fast_observer:
            return  # pure-observation arm with fallthrough is fine
        if fast_calls == slow_calls and fast_stores == slow_stores:
            return
        missing = sorted((slow_calls | slow_stores)
                         - (fast_calls | fast_stores))
        extra = sorted((fast_calls | fast_stores)
                       - (slow_calls | slow_stores))
        detail = []
        if missing:
            detail.append(f"slow-path-only: {', '.join(missing[:3])}")
        if extra:
            detail.append(f"fast-path-only: {', '.join(extra[:3])}")
        self.findings.append(Finding(
            rule="fastpath-divergent-fork", path=self.module.rel,
            line=node.lineno, symbol=self.qualname,
            message=f"fork on {guard} makes different state "
                    f"transitions per arm ({'; '.join(detail)}); "
                    f"observed and unobserved runs will diverge"))


@rule
class FastPathRule(Rule):
    id = "fastpath"
    title = "guarded fast paths must have state-equivalent slow paths"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules_under(*FASTPATH_SUBSYSTEMS):
            for qualname, node in walk_functions(module):
                checker = _FunctionChecker(module, qualname)
                checker.check(node)
                yield from checker.findings
