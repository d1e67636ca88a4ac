"""Interprocedural protocol-flow analysis over the two engines.

``repro.analysis.flow`` lifts the per-function AST rules of
:mod:`repro.analysis.rules` to the *graph* the engine handlers form:

* :mod:`~repro.analysis.flow.callgraph` — the module-spanning call /
  spawn / callback graph of ``EngineBase`` + each engine class.
* :mod:`~repro.analysis.flow.sends` — resolves every ``Message(...)``
  construction and NIC/port send to its (msg_type, channel) pair by a
  type-set fixpoint through ``Message``-typed parameters, and extracts
  the receive-side dispatch tables (which msg_types each channel's
  handler chain accepts, rejects, and routes where).
* :mod:`~repro.analysis.flow.graph` — assembles both into the
  model-agnostic :class:`~repro.analysis.flow.graph.FlowGraph` the four
  ``flow-*`` lint rules check.

Like the rest of :mod:`repro.analysis`, everything here is pure
``ast`` over source text — no runtime module is ever imported.
"""

from repro.analysis.flow.callgraph import ARCH_FILES
from repro.analysis.flow.graph import build_flow

__all__ = ["ARCH_FILES", "build_flow"]
