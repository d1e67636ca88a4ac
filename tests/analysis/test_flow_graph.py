"""The protocol-flow graph (``repro.analysis.flow``) on the real tree.

These are the acceptance gates for the graph the ``flow-*`` rules
check: 100% handler coverage for both engines, the dispatch tables the
paper's channel discipline implies, and the precision of the send-site
type resolution (no washed-out "could be anything" entries on the
protocol paths).
"""

import ast

import pytest

from repro.analysis import find_project_root, load_project
from repro.analysis.flow import ARCH_FILES, build_flow
from repro.analysis.flow.callgraph import reachable_from, successors
from repro.analysis.rules.flow import ENTRY_POINTS

ROOT = find_project_root()

BASE_FILE = "src/repro/core/engine.py"
ENGINE_CLASSES = {"baseline": "BaselineEngine", "offload": "OffloadEngine"}


@pytest.fixture(scope="module")
def flow():
    return build_flow(load_project(ROOT, paths=["src/repro"]))


def _class_methods(rel, class_name):
    tree = ast.parse((ROOT / rel).read_text())
    class_node = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == class_name)
    return {stmt.name for stmt in class_node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _sends_by_function(flow, arch):
    index = {}
    for site in flow.arches[arch].sends:
        index.setdefault(site.function, []).append(site)
    return index


class TestVocabulary:
    def test_msg_groups_parsed_from_messages(self, flow):
        assert set(flow.arches) == {"baseline", "offload"}
        assert "BATCHED_ACK" in flow.vocabulary.members
        assert flow.vocabulary.groups["is_ack"] == {"ACK", "ACK_C", "ACK_P"}
        assert flow.vocabulary.groups["is_val"] == {"VAL", "VAL_C", "VAL_P"}


class TestHandlerCoverage:
    """The gate: every method of EngineBase and of both engine classes
    appears in the graph — a handler added to an engine but missing
    from it would silently escape every flow-* rule."""

    @pytest.mark.parametrize("arch", ["baseline", "offload"])
    def test_every_engine_method_is_in_the_graph(self, flow, arch):
        expected = _class_methods(BASE_FILE, "EngineBase")
        expected |= _class_methods("src/" + ARCH_FILES[arch],
                                   ENGINE_CLASSES[arch])
        missing = expected - set(flow.arches[arch].universe)
        assert not missing, f"{arch}: handlers missing from graph: {missing}"

    @pytest.mark.parametrize("arch", ["baseline", "offload"])
    def test_every_dispatch_handler_is_a_graph_function(self, flow, arch):
        arch_flow = flow.arches[arch]
        for channel, table in arch_flow.dispatch.items():
            assert table.loop in arch_flow.universe
            for msg_type, handlers in table.handlers.items():
                for handler in handlers:
                    assert handler in arch_flow.universe, \
                        f"{arch}/{channel}: {msg_type} -> {handler}"

    @pytest.mark.parametrize("arch", ["baseline", "offload"])
    def test_receive_loops_reachable(self, flow, arch):
        """flow-durable-order searches from the entry points, so a
        receive loop they cannot reach would hide its handlers."""
        arch_flow = flow.arches[arch]
        reachable = reachable_from(ENTRY_POINTS,
                                   successors(arch_flow.edges))
        loops = {table.loop for table in arch_flow.dispatch.values()}
        assert loops and loops <= reachable


class TestDispatchTables:
    def test_baseline_net_rejects_batched_ack(self, flow):
        net = flow.arches["baseline"].dispatch["net"]
        assert "BATCHED_ACK" in net.rejected
        assert "BATCHED_ACK" not in net.accepted
        # The paper's 8 protocol message types.
        assert len(net.accepted) == 8

    def test_offload_pcie_host_to_snic_accepts_inv_and_persist_only(
            self, flow):
        table = flow.arches["offload"].dispatch["pcie_host_to_snic"]
        assert table.accepted == {"INV", "PERSIST"}
        assert not table.tolerant

    def test_offload_pcie_snic_to_host_is_tolerant(self, flow):
        table = flow.arches["offload"].dispatch["pcie_snic_to_host"]
        assert table.tolerant
        # Tolerant: every MsgType member (8 protocol + BATCHED_ACK).
        assert len(table.accepted) == 9


class TestSendPrecision:
    """Interprocedural type resolution must stay exact on the protocol
    paths — an ``unknown`` send site would make flow-unhandled-message
    vacuous for that edge."""

    def test_no_unknown_send_sites_anywhere(self, flow):
        for arch in ("baseline", "offload"):
            for site in flow.arches[arch].sends:
                where = f"{arch}: {site.function}:{site.line}"
                assert not site.types.unknown, where
                assert site.types.literals, where

    def test_offload_ack_forwarding_is_exactly_the_ack_group(self, flow):
        sites = _sends_by_function(flow, "offload")["_snic_on_ack"]
        resolved = set()
        for site in sites:
            resolved |= site.types.literals
        assert resolved == {"ACK", "ACK_C", "ACK_P"}

    def test_offload_client_persist_sends_persist_only(self, flow):
        sites = _sends_by_function(flow, "offload")["client_persist"]
        for site in sites:
            assert site.types.literals == {"PERSIST"}

    def test_baseline_fanout_covers_the_coordinator_vocabulary(self, flow):
        """All baseline sends funnel through ``_deposit_fanout``; the
        interprocedural bindings must resolve it to exactly the
        coordinator-originated types (INVs, PERSISTs, and the VAL
        family) — never the ACK family, which only followers send."""
        sites = _sends_by_function(flow, "baseline")["_deposit_fanout"]
        resolved = set()
        for site in sites:
            resolved |= site.types.literals
        assert resolved == {"INV", "PERSIST", "VAL", "VAL_C", "VAL_P"}
