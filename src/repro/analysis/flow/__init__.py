"""Interprocedural protocol-flow analysis over the two engines.

``repro.analysis.flow`` lifts the per-function AST rules of
:mod:`repro.analysis.rules` to the *graph* the engine handlers form:

* :mod:`~repro.analysis.flow.callgraph` — the module-spanning call /
  spawn / callback graph of ``EngineBase`` + each engine class, with
  model-guard contexts on every edge.
* :mod:`~repro.analysis.flow.sends` — resolves every ``Message(...)``
  construction and NIC/port send to its (msg_type, channel) pair by a
  type-set fixpoint through ``Message``-typed parameters, and extracts
  the receive-side dispatch tables (which msg_types each channel's
  handler chain accepts, rejects, and routes where).
* :mod:`~repro.analysis.flow.automaton` — assembles the per
  (consistency, persistency, arch) protocol automaton from those triples
  and exports it as the versioned ``protocol-graph.json`` IR (schema
  :data:`~repro.analysis.flow.automaton.GRAPH_SCHEMA`), which the
  ``flow-*`` lint rules consume and ``repro lint --graph`` exports.
* :mod:`~repro.analysis.flow.explore` — a small-scope explicit-state
  explorer over the automaton (reachability closure from the client
  entry points) plus the combined happens-before relation the
  ``flow-meta-race`` rule consults.

Like the rest of :mod:`repro.analysis`, everything here is pure
``ast`` over source text — no runtime module is ever imported.
"""

from repro.analysis.flow.automaton import (GRAPH_SCHEMA, build_flow,
                                           export_graph,
                                           extract_protocol_graph)
from repro.analysis.flow.callgraph import ARCH_FILES, build_universe
from repro.analysis.flow.explore import explore, happens_before

__all__ = [
    "ARCH_FILES",
    "GRAPH_SCHEMA",
    "build_flow",
    "build_universe",
    "explore",
    "export_graph",
    "extract_protocol_graph",
    "happens_before",
]
