"""Metadata access analyzer: direct writes, the durability witnesses and
mediation tags the flow rules consume, and the per-handler access
table."""

import textwrap

from repro.analysis import analyze_project, load_project_from_sources

ENGINE_PATH = "src/repro/core/baseline/engine.py"


def _engine(body):
    return {ENGINE_PATH: textwrap.dedent(body)}


class TestDirectWrite:
    def test_raw_field_assignment_flagged(self, finding_index):
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.glb_durable_ts = ts
        """), only=["protocol"])
        assert (ENGINE_PATH, 7) in index["meta-direct-write"]

    def test_accessor_write_allowed(self, finding_index):
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts, txn):
                    meta = self.kv.meta(key)
                    yield txn.all_acks
                    meta.set_glb_volatile(ts)
        """), only=["protocol"])
        assert "meta-direct-write" not in index

    def test_sanctioned_inside_metadata_module(self, finding_index):
        index = finding_index({
            "src/repro/core/metadata.py": textwrap.dedent("""
                class RecordMeta:
                    def set_glb_durable(self, ts):
                        self.glb_durable_ts = ts
            """)}, only=["protocol"])
        assert "meta-direct-write" not in index


class TestDurableWithoutLog:
    """The scanner's durability witnesses, as ``flow-durable-order``
    consumes them: ``client_write`` (an entry point) reaches
    ``handler``, so an unwitnessed advance there is reachable."""

    ENTRY = """
                def client_write(self, key, ts):
                    yield from self.handler(key, ts)
    """

    def _index(self, finding_index, body):
        return finding_index(_engine(body + self.ENTRY),
                             only=["flow-durable-order"])

    def test_unwitnessed_durable_advance_flagged(self, finding_index):
        index = self._index(finding_index, """
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.set_glb_durable(ts)
        """)
        assert index["flow-durable-order"] == [(ENGINE_PATH, 7)]

    def test_ack_wait_witnesses(self, finding_index):
        index = self._index(finding_index, """
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts, txn):
                    meta = self.kv.meta(key)
                    yield txn.all_ack_ps
                    meta.set_glb_durable(ts)
        """)
        assert "flow-durable-order" not in index

    def test_log_append_witnesses(self, finding_index):
        index = self._index(finding_index, """
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts, value):
                    meta = self.kv.meta(key)
                    self.kv.persist(key, value, ts)
                    meta.set_glb_durable(ts)
        """)
        assert "flow-durable-order" not in index

    def test_val_p_dispatch_witnesses(self, finding_index):
        index = self._index(finding_index, """
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, msg):
                    meta = self.kv.meta(msg.key)
                    if msg.type is MsgType.VAL_P:
                        meta.set_glb_durable(msg.ts)
        """)
        assert "flow-durable-order" not in index

    def test_witness_in_the_caller_covers_the_callee(self, finding_index):
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.set_glb_durable(ts)

                def client_write(self, key, ts, txn):
                    yield txn.all_ack_ps
                    yield from self.handler(key, ts)
        """), only=["flow-durable-order"])
        assert "flow-durable-order" not in index


class TestRace:
    """The scanner's mediation tags, as ``flow-meta-race`` consumes
    them (the fixtures' handlers share no happens-before edge)."""

    def test_unmediated_conflicting_access_flagged(self, finding_index):
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def reader(self, key, ts):
                    meta = self.kv.meta(key)
                    return meta.volatile_ts < ts

                def writer(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.set_volatile(ts)
        """), only=["flow-meta-race"])
        assert index["flow-meta-race"] == [(ENGINE_PATH, 7)]

    def test_wrlock_span_mediates(self, finding_index):
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def reader(self, key, ts):
                    meta = self.kv.meta(key)
                    yield meta.wrlock.acquire()
                    obsolete = meta.volatile_ts < ts
                    meta.wrlock.release()
                    return obsolete

                def writer(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.set_volatile(ts)
        """), only=["flow-meta-race"])
        assert "flow-meta-race" not in index

    def test_fifo_drain_mediates(self, finding_index):
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def __init__(self, snic):
                    snic.start_drains(self._vfifo_apply, self._dfifo_apply)

                def _vfifo_apply(self, entry):
                    meta = self.kv.meta(entry.key)
                    return entry.ts < meta.volatile_ts

                def _dfifo_apply(self, entry):
                    pass

                def writer(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.set_volatile(ts)
        """), only=["flow-meta-race"])
        assert "flow-meta-race" not in index

    def test_protocol_group_reports_no_race_warnings(self, finding_index):
        """Races are the flow rule's call alone: the protocol group
        emits only ``meta-direct-write``."""
        index = finding_index(_engine("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def reader(self, key, ts):
                    meta = self.kv.meta(key)
                    return meta.volatile_ts < ts

                def writer(self, key, ts):
                    meta = self.kv.meta(key)
                    meta.set_volatile(ts)
                    meta.set_glb_durable(ts)
        """), only=["protocol"])
        assert index == {}


class TestAccessTable:
    def _result(self, body):
        project = load_project_from_sources(_engine(body))
        return analyze_project(project, only=["protocol"])

    def test_table_lists_every_handler(self):
        result = self._result("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def touches(self, key, ts, txn):
                    meta = self.kv.meta(key)
                    yield txn.all_acks
                    meta.set_glb_volatile(ts)

                def does_not(self):
                    return 42
        """)
        handlers = result.tables["metadata_access"]["engines"][
            "BaselineEngine"]
        assert set(handlers) == {"touches", "does_not"}
        assert handlers["touches"]["writes"] == {"glb_volatile_ts": [8]}
        assert handlers["does_not"]["reads"] == {}

    def test_reader_methods_mapped_to_fields(self):
        result = self._result("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts):
                    meta = self.kv.meta(key)
                    if meta.is_obsolete(ts):
                        return
                    yield from meta.persistency_spin()
        """)
        handler = result.tables["metadata_access"]["engines"][
            "BaselineEngine"]["handler"]
        assert set(handler["reads"]) == {"volatile_ts", "glb_durable_ts"}

    def test_reader_call_counted_once(self):
        result = self._result("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def handler(self, key, ts):
                    meta = self.kv.meta(key)
                    if meta.is_obsolete(ts) or not meta.rdlock_free:
                        return
        """)
        handler = result.tables["metadata_access"]["engines"][
            "BaselineEngine"]["handler"]
        assert handler["reads"] == {"volatile_ts": [7], "rdlock_owner": [7]}

    def test_field_writers_diff_section(self):
        result = self._result("""
            class EngineBase: pass

            class BaselineEngine(EngineBase):
                def a(self, key, ts, txn):
                    meta = self.kv.meta(key)
                    yield txn.all_acks
                    meta.set_glb_durable(ts)
        """)
        writers = result.tables["metadata_access"]["field_writers"]
        assert writers["glb_durable_ts"] == {"BaselineEngine": ["a"]}
