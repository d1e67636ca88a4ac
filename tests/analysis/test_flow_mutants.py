"""Seeded-mutant gate for the protocol rules (the four flow-* rules and
``meta-direct-write``) and the two fast-path parity rules.

Each test copies the real engine sources into a scratch tree, seeds
one protocol bug the corresponding rule exists to catch, and asserts
the rule fires — proving the rules are live against the *actual*
engines, not just against synthetic fixtures.  CI runs this file as
its mutant gate; a rule that stops firing here has rotted.

The anchors are exact source lines from the engines; if an engine
refactor moves them, the ``replace`` helper fails loudly rather than
silently testing nothing.
"""

import shutil

import pytest

from repro.analysis import find_project_root, run_analysis

ROOT = find_project_root()

BASELINE_ENGINE = "src/repro/core/baseline/engine.py"
OFFLOAD_ENGINE = "src/repro/core/offload/engine.py"
NETWORK = "src/repro/sim/network.py"

FLOW_RULES = ("flow-unhandled-message", "flow-send-without-timeout",
              "flow-durable-order", "flow-meta-race", "protocol")


@pytest.fixture
def scratch(tmp_path):
    """A copy of ``src/repro`` the tests may mutate freely."""
    (tmp_path / "pyproject.toml").write_text("")
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro")
    return tmp_path


def mutate(root, rel, old, new, count=None):
    """Replace *old* with *new* in ``root/rel``, failing if the anchor
    is gone (so an engine refactor breaks the gate visibly)."""
    path = root / rel
    source = path.read_text()
    found = source.count(old)
    assert found, f"mutation anchor not found in {rel}: {old!r}"
    if count is not None:
        assert found == count, f"anchor matched {found}x, expected {count}"
    path.write_text(source.replace(old, new))


def lint(root, only):
    return run_analysis(root=root, paths=["src/repro"], only=list(only))


def findings_for(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


def test_clean_tree_is_quiet(scratch):
    """No protocol or fast-path rule fires on the unmutated tree (else
    every gate below is vacuous)."""
    result = lint(scratch, FLOW_RULES + ("fastpath",))
    assert result.findings == []


class TestUnhandledMessage:
    def test_dropping_the_val_dispatch_arm_fires(self, scratch):
        mutate(scratch, BASELINE_ENGINE,
               "        elif msg.type.is_val:\n"
               "            yield from self._follower_val(msg)\n"
               "        else:\n"
               "            raise ProtocolError",
               "        else:\n"
               "            raise ProtocolError")
        result = lint(scratch, ["flow-unhandled-message"])
        hits = findings_for(result, "flow-unhandled-message")
        assert hits, "VAL family now rejected by the net loop: must fire"
        unhandled = {f.message.split()[0] for f in hits}
        assert {"VAL", "VAL_C", "VAL_P"} <= unhandled
        assert all(f.severity == "error" for f in hits)


class TestSendWithoutTimeout:
    def test_dropping_the_retransmit_watchers_fires(self, scratch):
        mutate(scratch, BASELINE_ENGINE,
               "        self.watch_retransmits(txn, msg, self._resend)\n",
               "")
        result = lint(scratch, ["flow-send-without-timeout"])
        hits = findings_for(result, "flow-send-without-timeout")
        assert hits, "unprotected ACK waits must fire"
        symbols = {f.symbol for f in hits}
        assert "BaselineEngine.client_persist" in symbols


class TestDurableOrder:
    MUTATION = ("        ts = self.issue_ts(key)\n",
                "        ts = self.issue_ts(key)\n"
                "        self.kv.meta(key).set_glb_durable(ts)\n")

    def test_durable_advance_before_log_append_fires(self, scratch):
        mutate(scratch, BASELINE_ENGINE, *self.MUTATION)
        result = lint(scratch, ["flow-durable-order"])
        hits = findings_for(result, "flow-durable-order")
        assert hits, "glb_durableTS advanced before any log append"
        assert any(f.symbol == "BaselineEngine.client_write"
                   for f in hits)

    def test_supersedes_the_intraprocedural_warning(self, scratch):
        """flow-durable-order is the only rule on durable ordering: the
        ``protocol`` group reports nothing for this mutant."""
        mutate(scratch, BASELINE_ENGINE, *self.MUTATION)
        result = lint(scratch, ["protocol"])
        assert result.findings == []


class TestMetaRace:
    def test_unmediated_meta_read_in_snic_handler_fires(self, scratch):
        mutate(scratch, OFFLOAD_ENGINE,
               "    def _snic_on_ack(self, msg: Message):\n"
               "        txn = self.txn(msg.write_id)\n",
               "    def _snic_on_ack(self, msg: Message):\n"
               "        txn = self.txn(msg.write_id)\n"
               "        stale = self.kv.meta(msg.key).volatile_ts\n")
        result = lint(scratch, ["flow-meta-race"])
        hits = findings_for(result, "flow-meta-race")
        assert hits, "raw volatile_ts read on the SNIC ACK path must fire"
        assert any(f.symbol == "OffloadEngine._snic_on_ack"
                   for f in hits)


class TestDirectWrite:
    def test_raw_glb_durable_write_in_client_write_fires(self, scratch):
        mutate(scratch, BASELINE_ENGINE, "        ts = self.issue_ts(key)\n",
               "        ts = self.issue_ts(key)\n"
               "        self.kv.meta(key).glb_durable_ts = ts\n")
        result = lint(scratch, ["protocol"])
        hits = findings_for(result, "meta-direct-write")
        assert "BaselineEngine.client_write" in {f.symbol for f in hits}
        assert result.gating


class TestFastPath:
    def test_state_store_in_an_obs_arm_fires(self, scratch):
        mutate(scratch, BASELINE_ENGINE,
               "            self.obs.seg_end(self.node_id, write_id, "
               "\"lock_acquire\")\n"
               "        txn: Optional[WriteTxn] = None\n",
               "            self.obs.seg_end(self.node_id, write_id, "
               "\"lock_acquire\")\n"
               "            self.metrics.counters.rdlock_snatches += 1\n"
               "        txn: Optional[WriteTxn] = None\n", count=1)
        result = lint(scratch, ["fastpath"])
        hits = findings_for(result, "fastpath-observer-effect")
        assert [f.symbol for f in hits] == ["BaselineEngine.client_write"]

    def test_dropping_a_delivery_arm_of_the_injector_fork_fires(
            self, scratch):
        mutate(scratch, NETWORK,
               "        else:\n"
               "            self._schedule_deliveries(deliveries)\n",
               "        else:\n"
               "            pass\n", count=1)
        result = lint(scratch, ["fastpath"])
        hits = findings_for(result, "fastpath-divergent-fork")
        assert [f.symbol for f in hits] == ["Port._deliver"]
        assert "_schedule_deliveries" in hits[0].message
