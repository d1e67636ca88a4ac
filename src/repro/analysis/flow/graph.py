"""The model-agnostic flow graph the ``flow-*`` rules check.

:func:`build_flow` combines, per architecture, the call graph
(:mod:`~repro.analysis.flow.callgraph`) with the send sites and
receive-side dispatch tables (:mod:`~repro.analysis.flow.sends`), and
resolves every send site's message types through the interprocedural
parameter fixpoint.  The graph lives only in memory: the rules build it
once per lint run through ``project.shared("flow", build_flow)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.analysis.core import Project
from repro.analysis.flow.callgraph import (ARCH_FILES, BASE_CLASS, CallSite,
                                           FunctionInfo, build_universe,
                                           engine_class_names, extract_edges)
from repro.analysis.flow.sends import (DispatchTable, MsgVocabulary,
                                       SendSite, concrete_types,
                                       extract_bindings, extract_dispatch,
                                       extract_sends, load_vocabulary,
                                       prune_bindings, solve_params)


@dataclass
class ArchFlow:
    """The flow structure of one architecture."""

    arch: str
    module: str                   #: engine module path
    engine: str                   #: engine class name
    universe: Dict[str, FunctionInfo]
    edges: List[CallSite]
    sends: List[SendSite]         #: types resolved to concrete members
    dispatch: Dict[str, DispatchTable]


@dataclass
class FlowGraph:
    """Everything the flow rules consume."""

    vocabulary: MsgVocabulary
    arches: Dict[str, ArchFlow] = field(default_factory=dict)


def build_flow(project: Project) -> FlowGraph:
    """Assemble the flow graph for both architectures."""
    flow = FlowGraph(vocabulary=load_vocabulary(project))
    for arch in ARCH_FILES:
        engine_module = project.module(ARCH_FILES[arch])
        if engine_module is None:
            continue
        engines = engine_class_names(engine_module)
        universe = build_universe(project, arch)
        dispatch = extract_dispatch(universe, flow.vocabulary, arch)
        bindings = prune_bindings(
            extract_bindings(universe),
            [binding for table in dispatch.values()
             for binding in table.bindings])
        solution = solve_params(bindings)
        sends = [replace(site, types=concrete_types(site.types, solution))
                 for site in extract_sends(universe, arch)]
        flow.arches[arch] = ArchFlow(
            arch=arch, module=engine_module.rel,
            engine=sorted(engines)[0] if engines else BASE_CLASS,
            universe=universe, edges=extract_edges(universe),
            sends=sends, dispatch=dispatch)
    return flow
