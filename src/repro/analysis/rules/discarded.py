"""Discarded-event rule for the simulation subsystems.

``Port.send`` / ``send_broadcast`` / ``transfer`` and ``Simulator.sleep``
/ ``timeout`` return an event that is *already on the calendar*.  A
caller that drops it still pays for the entry: the kernel pops it, finds
no callback and moves on.  Four fire-and-forget PCIe deposits did exactly
that, two dead entries per message (docs/simulator.md, "Processes vs
callbacks"); the fire-and-forget form is ``Port.post``.

* **sim-discarded-event** — in the deterministic subsystems, an
  expression statement whose value is a call to ``<x>.send(…)``,
  ``<x>.send_broadcast(…)``, ``<x>.transfer(…)``, ``sim.sleep(…)`` or
  ``sim.timeout(…)``.  Yielding, assigning or returning it is fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (Project, Rule, dotted_name,
                                 enclosing_symbol, rule)
from repro.analysis.report import Finding
from repro.analysis.rules.determinism import DETERMINISTIC_SUBSYSTEMS

#: Methods that return a scheduled event whatever they are called on.
_PORT_METHODS = {"send", "send_broadcast", "transfer"}
#: Methods that do when called on a simulator (``sim`` / ``self.sim``).
_SIM_METHODS = {"sleep", "timeout"}


def _discarded_call(node: ast.AST) -> str:
    """The dotted call the statement *node* throws away, or ``""``."""
    if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)):
        return ""
    func = node.value.func
    receiver = dotted_name(func.value)
    if func.attr in _PORT_METHODS or (
            func.attr in _SIM_METHODS
            and receiver.rpartition(".")[2] == "sim"):
        return f"{receiver or '<expr>'}.{func.attr}"
    return ""


@rule
class DiscardedEventRule(Rule):
    id = "sim-discarded-event"
    title = "no scheduled event thrown away by an expression statement"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules_under(*DETERMINISTIC_SUBSYSTEMS):
            for node in ast.walk(module.tree):
                call = _discarded_call(node)
                if call:
                    yield Finding(
                        rule=self.id, path=module.rel, line=node.lineno,
                        symbol=enclosing_symbol(module, node),
                        message=f"{call}(...) returns an event already "
                                f"on the calendar and the statement drops "
                                f"it (an entry that runs no callback): "
                                f"yield it or use Port.post")
