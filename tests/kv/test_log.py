"""Tests for the NVM log (out-of-order persists, obsolete-checked apply)."""

from repro.core.timestamp import Timestamp
from repro.kv.log import NvmLog


class TestAppendApply:
    def test_out_of_order_appends_newest_wins(self):
        """§III-B: the NVM can be updated out of order; apply-time
        obsoleteness checks keep the durable DB correct."""
        log = NvmLog()
        log.append("k", Timestamp(3, 0), "newest")
        log.append("k", Timestamp(1, 0), "oldest")
        log.append("k", Timestamp(2, 1), "middle")
        assert log.durable_value("k") == "newest"
        assert log.obsolete_skipped == 2

    def test_incremental_apply(self):
        log = NvmLog()
        log.append("k", Timestamp(1, 0), "a")
        assert log.apply_all() == 1
        log.append("k", Timestamp(2, 0), "b")
        assert log.apply_all() == 1  # only the new entry
        assert log.apply_all() == 0

    def test_durable_ts(self):
        log = NvmLog()
        assert log.durable_ts("k") is None
        log.append("k", Timestamp(4, 2), "v")
        assert log.durable_ts("k") == Timestamp(4, 2)

    def test_multiple_keys_independent(self):
        log = NvmLog()
        log.append("a", Timestamp(1, 0), "va")
        log.append("b", Timestamp(9, 0), "vb")
        log.append("a", Timestamp(2, 0), "va2")
        assert log.durable_value("a") == "va2"
        assert log.durable_value("b") == "vb"


class TestRecoverySupport:
    def test_serials_monotonic(self):
        log = NvmLog()
        first = log.append("k", Timestamp(1, 0), "a")
        second = log.append("k", Timestamp(2, 0), "b")
        assert second.serial > first.serial
        assert log.last_serial == second.serial

    def test_entries_since(self):
        log = NvmLog()
        log.append("k", Timestamp(1, 0), "a")
        marker = log.last_serial
        log.append("k", Timestamp(2, 0), "b")
        log.append("j", Timestamp(1, 1), "c")
        missed = log.entries_since(marker)
        assert [e.value for e in missed] == ["b", "c"]

    def test_empty_log(self):
        log = NvmLog()
        assert log.last_serial == -1
        assert log.entries_since(-1) == []

    def test_ingest_reserializes(self):
        source = NvmLog()
        source.append("k", Timestamp(1, 0), "a", scope=7)
        target = NvmLog()
        target.append("x", Timestamp(1, 1), "local")
        assert target.ingest(iter(source.entries_since(-1))) == 1
        assert target.durable_value("k") == "a"
        assert len(target) == 2
        assert target.scope_entries(7)[0].key == "k"

    def test_entries_for(self):
        log = NvmLog()
        log.append("a", Timestamp(1, 0), "x")
        log.append("b", Timestamp(1, 0), "y")
        assert len(log.entries_for("a")) == 1
