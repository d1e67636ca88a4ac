"""Behavioural tests of the MINOS-B engine against the paper's Figure 2."""

import pytest

from repro import ALL_MODELS, LIN_RENF, LIN_STRICT, LIN_SYNCH, MINOS_B
from repro.cluster.cluster import MinosCluster
from repro.core.timestamp import Timestamp
from repro.hw.params import HostParams, MachineParams
from repro.sim.resources import Resource


def cluster(model=LIN_SYNCH, nodes=3):
    c = MinosCluster(model=model, config=MINOS_B,
                     params=MachineParams(nodes=nodes))
    c.load_records([("k", "v0")])
    return c


class TestSingleWrite:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_write_replicates_everywhere(self, model):
        c = cluster(model=model)
        result = c.write(0, "k", "v1")
        assert not result.obsolete
        assert result.ts == Timestamp(1, 0)
        for node in c.nodes:
            assert node.kv.volatile_read("k").value == "v1"
            assert node.kv.volatile_read("k").ts == Timestamp(1, 0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_write_is_durable_everywhere_after_quiescence(self, model):
        c = cluster(model=model)
        c.write(0, "k", "v1")
        c.sim.run()  # drain background persists (Event/Scope/REnf)
        for node in c.nodes:
            assert node.kv.durable_value("k") == "v1"

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_rdlock_free_after_quiescence(self, model):
        c = cluster(model=model)
        c.write(0, "k", "v1")
        c.sim.run()
        for node in c.nodes:
            assert node.kv.meta("k").rdlock_free

    def test_synch_glb_timestamps_converge(self):
        c = cluster(model=LIN_SYNCH)
        c.write(1, "k", "v1")
        c.sim.run()
        for node in c.nodes:
            meta = node.kv.meta("k")
            assert meta.volatile_ts == Timestamp(1, 1)
            assert meta.glb_volatile_ts == Timestamp(1, 1)
            assert meta.glb_durable_ts == Timestamp(1, 1)

    def test_timestamps_monotonic_across_writes(self):
        c = cluster()
        first = c.write(0, "k", "a")
        second = c.write(2, "k", "b")
        assert second.ts > first.ts
        assert second.ts == Timestamp(2, 2)


class TestReads:
    def test_read_returns_latest_committed(self):
        c = cluster()
        c.write(0, "k", "new")
        result = c.read(2, "k")
        assert result.value == "new"
        assert result.ts == Timestamp(1, 0)

    def test_read_of_missing_key(self):
        c = cluster()
        result = c.read(0, "nope")
        assert result.value is None

    def test_read_stalls_while_rdlock_held(self):
        """§III-D: a read stalls only while the record's RDLock is taken."""
        c = cluster()
        sim = c.sim
        outcomes = {}

        def writer():
            yield from c.nodes[0].engine.client_write("k", "v1")
            outcomes["write_done"] = sim.now

        def reader():
            # Start after the write grabbed the lock but before it ends.
            yield sim.timeout(2e-6)
            result = yield from c.nodes[0].engine.client_read("k")
            outcomes["read_done"] = sim.now
            outcomes["read_value"] = result.value

        sim.spawn(writer())
        sim.spawn(reader())
        sim.run()
        assert c.metrics.counters.read_stalls == 1
        # The read waits until the RDLock is released, which Fig. 2 places
        # after all ACKs (consistency + persistency complete) and just
        # before the VALs go out — so the read never sees the old value.
        assert outcomes["read_done"] > 5e-6
        assert outcomes["read_value"] == "v1"


class TestObsoleteWrites:
    def test_concurrent_writes_converge_to_newest(self):
        """Two same-key writes from different nodes: both complete, all
        replicas converge on the newer timestamp (higher node id wins a
        version tie)."""
        c = cluster()
        sim = c.sim
        procs = [sim.spawn(c.nodes[n].engine.client_write("k", f"v-from-{n}"))
                 for n in (0, 2)]
        sim.run()
        assert all(p.triggered for p in procs)
        winner = c.nodes[0].kv.volatile_read("k")
        assert winner.ts == Timestamp(1, 2)  # tie on version 1: node 2 wins
        for node in c.nodes:
            versioned = node.kv.volatile_read("k")
            assert versioned.ts == winner.ts
            assert versioned.value == "v-from-2"

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_storm_of_conflicting_writes_converges(self, model):
        c = cluster(model=model, nodes=4)
        sim = c.sim
        procs = []
        for round_ in range(3):
            for n in range(4):
                procs.append(sim.spawn(
                    c.nodes[n].engine.client_write("k", f"r{round_}n{n}")))
        sim.run()
        assert all(p.triggered for p in procs)
        reference = c.nodes[0].kv.volatile_read("k")
        for node in c.nodes:
            versioned = node.kv.volatile_read("k")
            assert versioned.ts == reference.ts
            assert versioned.value == reference.value
        # The winning value is also the durable one everywhere.
        for node in c.nodes:
            assert node.kv.durable_value("k") == reference.value

    def test_obsolete_write_reports_back(self):
        """A write overtaken before its final timestamp check returns as
        obsolete without sending INVs."""
        c = cluster()
        sim = c.sim
        results = []

        def slow_then_fast():
            # Node 0 and node 1 race on the same key; ties favour node 1,
            # so node 0's write may be snatched/obsoleted.
            p0 = sim.spawn(c.nodes[0].engine.client_write("k", "a"))
            p1 = sim.spawn(c.nodes[1].engine.client_write("k", "b"))
            r0 = yield p0
            r1 = yield p1
            results.extend([r0, r1])

        sim.run_process(slow_then_fast())
        sim.run()
        # Either both committed (ordered) or one was cut short; in every
        # case the replicas agree afterwards.
        reference = c.nodes[0].kv.volatile_read("k").ts
        for node in c.nodes:
            assert node.kv.volatile_read("k").ts == reference


class TestStrictSpecifics:
    def test_strict_sends_val_c_and_val_p(self):
        c = cluster(model=LIN_STRICT)
        c.write(0, "k", "v1")
        c.sim.run()
        # 2 followers x (VAL_C + VAL_P)
        assert c.metrics.counters.vals_sent == 4

    def test_renf_client_returns_before_vals(self):
        """REnf: the client response precedes the VAL round."""
        c = cluster(model=LIN_RENF)
        result = c.write(0, "k", "v1")
        meta0 = c.nodes[0].kv.meta("k")
        # Client returned; followers may not have been validated yet, but
        # after draining everything converges and unlocks.
        c.sim.run()
        assert meta0.rdlock_free
        assert meta0.glb_durable_ts == result.ts


class TestBatchedBaseline:
    """MINOS-B+batching (a Fig. 12 point) must stay protocol-correct."""

    def test_batched_writes_replicate_and_unlock(self):
        from repro import B_BATCHING
        c = MinosCluster(model=LIN_SYNCH, config=B_BATCHING,
                         params=MachineParams(nodes=3))
        c.load_records([("k", "v0")])
        c.write(0, "k", "v1")
        c.sim.run()
        for node in c.nodes:
            assert node.kv.volatile_read("k").value == "v1"
            assert node.kv.meta("k").rdlock_free
            assert node.kv.durable_value("k") == "v1"

    def test_broadcast_baseline_equivalent(self):
        from repro import B_BROADCAST
        c = MinosCluster(model=LIN_SYNCH, config=B_BROADCAST,
                         params=MachineParams(nodes=3))
        c.load_records([("k", "v0")])
        c.write(1, "k", "v1")
        c.sim.run()
        for node in c.nodes:
            assert node.kv.volatile_read("k").value == "v1"


class CountingCores(Resource):
    """Host cores that count the requests made of them."""

    requests = 0

    def request(self):
        self.requests += 1
        return super().request()


class TestReadCoreHolds:
    """``client_read`` holds a host core for the request overhead, again
    for the hashtable lookup, then reads the LLC.  The costs are powers
    of two, so every sum below is exact."""

    def build(self, **host):
        costs = {"request_overhead": 2.0 ** -23, "kv_lookup": 2.0 ** -25,
                 "llc_access_per_kb": 2.0 ** -24, **host}
        params = MachineParams(nodes=3, host=HostParams(**costs))
        c = MinosCluster(model=LIN_SYNCH, config=MINOS_B, params=params)
        c.load_records([("k", "v0")])
        node = c.nodes[0]
        lookup = costs["kv_lookup"] * node.kv.lookup_probes("k")
        llc = node.host.llc.service_time(params.record_size)
        return c, costs["request_overhead"], lookup, llc

    def test_uncontended_read_latency(self):
        c, overhead, lookup, llc = self.build()
        assert c.read(0, "k").latency == overhead + lookup + llc

    def test_second_read_on_one_core_finishes_one_hold_later(self):
        c, overhead, lookup, llc = self.build(cores=1)
        engine = c.nodes[0].engine
        reads = [c.sim.spawn(engine.client_read("k")) for _ in range(2)]
        c.sim.run()
        first, second = (read.value.latency for read in reads)
        # One core, taken in turn: overhead A, overhead B, lookup A, lookup B.
        assert first == 2 * overhead + lookup + llc
        assert second == first + lookup

    def test_zero_request_overhead_skips_its_core_request(self):
        c, _, lookup, llc = self.build(request_overhead=0.0)
        host = c.nodes[0].host
        host.cores = CountingCores(c.sim, host.params.host.cores)
        assert c.read(0, "k").latency == lookup + llc
        assert host.cores.requests == 1  # the lookup hold only
