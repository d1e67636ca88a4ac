"""The hot-path optimizations are calendar-transparent.

Every fast path in the kernel and fabric — pooled timeouts, the
skip-when-no-recorder guards in the engines, the skip-when-no-injector
branch in ``Port._deliver`` — claims to change only constant factors,
never behavior.  These tests pin that claim: they install a
:attr:`Simulator.schedule_observer` hook (called on every calendar
push, in either tier) to record the full event calendar of a
small-but-real workload and assert the recording is *identical* with the
optimization on and off.

A divergence here means an optimization changed simulation semantics,
which invalidates every figure the repo produces — treat failures as
release blockers, not flaky tests.

The two-tier calendar (same-instant FIFO beside the heap) and the
fan-out fold (one entry per run of equal arrival times in
``Port._schedule_deliveries``) change the pushes themselves, so they are
held against a heap-only, one-entry-per-delivery reference kernel
instead (:class:`TestCalendarTiers`): every simulated result must be
``==``, and the entry count lower by exactly the folded deliveries.
"""

from dataclasses import asdict
from heapq import heappop, heappush

import pytest

from repro.api import (ALL_MODELS, LIN_SYNCH, MINOS_B, MINOS_O,
                       MinosCluster, YcsbWorkload)
from repro.core.config import ABLATION_CONFIGS, ProtocolConfig
from repro.errors import SimulationError, StopSimulation
from repro.faults import FaultPlan, LinkFaults
from repro.hw.params import DEFAULT_MACHINE
from repro.sim.events import Event, Timeout, _PooledTimeout
from repro.sim.kernel import Simulator
from repro.sim.network import Port


def record_calendar(sim):
    """Install a ``schedule_observer`` so every push is recorded.

    Returns the list the pushes land in; each entry is ``(now, delay)``
    — enough to detect any reordering, retiming, or added/removed
    event, while staying agnostic to which object instance carried it
    (pooling deliberately reuses instances).
    """
    calendar = []

    def observe(event, delay):
        calendar.append((sim._now, delay))

    sim.schedule_observer = observe
    return calendar


def run_small_workload(config, setup=None):
    """One deterministic 3-node YCSB run; returns its observables."""
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=DEFAULT_MACHINE.with_nodes(3))
    if setup is not None:
        setup(cluster)
    calendar = record_calendar(cluster.sim)
    workload = YcsbWorkload(records=12, requests_per_client=8,
                            write_fraction=0.6, seed=7)
    metrics = cluster.run_workload(workload, clients_per_node=1)
    return {
        "calendar": calendar,
        "events_processed": cluster.sim.events_processed,
        "write_latencies": metrics.write_latency.samples,
        "read_latencies": metrics.read_latency.samples,
    }


def assert_identical(reference, candidate):
    assert candidate["events_processed"] == reference["events_processed"]
    assert candidate["calendar"] == reference["calendar"]
    assert candidate["write_latencies"] == reference["write_latencies"]
    assert candidate["read_latencies"] == reference["read_latencies"]
    assert len(reference["calendar"]) > 1000, \
        "workload too small — the comparison is vacuous"


class TestTimeoutPooling:
    def test_pooling_is_calendar_transparent(self):
        """Same calendar with sleep() pooling enabled and disabled."""
        def disable_pooling(cluster):
            cluster.sim.timeout_pooling = False

        for config in (MINOS_B, MINOS_O):
            pooled = run_small_workload(config)
            unpooled = run_small_workload(config, setup=disable_pooling)
            assert_identical(pooled, unpooled)

    def test_sleep_recycles_instances(self):
        """The pool actually reuses objects (else it's dead code)."""
        sim = Simulator()

        seen = []

        def chain():
            for _ in range(8):
                timeout = sim.sleep(1e-9)
                seen.append(timeout)
                yield timeout

        sim.spawn(chain(), name="chain")
        sim.run()
        assert all(isinstance(t, _PooledTimeout) for t in seen)
        # A fired hop is recycled right after its resume callback runs,
        # so the chain alternates between two pooled instances: hop N+2
        # reuses hop N's object.
        assert seen[0] is not seen[1]
        assert seen[2] is seen[0] and seen[3] is seen[1]
        assert sim._timeout_pool, "fired timeouts were not recycled"

    def test_sleep_with_pooling_disabled_allocates_plain_timeouts(self):
        sim = Simulator()
        sim.timeout_pooling = False
        timeout = sim.sleep(1e-9)
        assert type(timeout) is Timeout

    def test_recycled_timeouts_drop_their_payload(self):
        """Recycling must not leak values into the next wait."""
        sim = Simulator()
        payload = object()

        def one_hop():
            got = yield sim.sleep(1e-9, value=payload)
            assert got is payload

        sim.run_process(one_hop(), name="hop")
        assert all(t._value is None for t in sim._timeout_pool)


class TestObsFastPath:
    def test_attaching_obs_does_not_change_the_calendar(self):
        """The span recorder claims a zero-overhead contract:
        record-only bookkeeping behind ``obs is not None`` guards.  With a recorder attached the run must schedule the
        exact same events, or the exported timeline describes a
        *different* execution than the unobserved one."""
        def attach(cluster):
            cluster.attach_obs()

        for config in (MINOS_B, MINOS_O):
            plain = run_small_workload(config)
            observed = run_small_workload(config, setup=attach)
            assert_identical(plain, observed)

    def test_obs_is_calendar_transparent_under_faults(self):
        """The retransmit/fault instrumentation must also be record-only:
        the same lossy run, with and without the recorder, schedules the
        same retransmissions at the same times."""
        from repro.faults import FaultPlan

        def install_plan(cluster):
            cluster.enable_faults(FaultPlan.lossy(seed=3, drop=0.05))

        def install_plan_and_obs(cluster):
            cluster.attach_obs()
            cluster.enable_faults(FaultPlan.lossy(seed=3, drop=0.05))

        for config in (MINOS_B, MINOS_O):
            plain = run_small_workload(config, setup=install_plan)
            observed = run_small_workload(config,
                                          setup=install_plan_and_obs)
            assert_identical(plain, observed)

    def test_obs_actually_recorded_something(self):
        """Guard against the transparency tests passing vacuously
        because the recorder was never invoked."""
        recorders = {}

        def attach(cluster):
            recorders["obs"] = cluster.attach_obs()

        run_small_workload(MINOS_O, setup=attach)
        obs = recorders["obs"]
        assert len(obs.spans) > 10
        assert len(obs.segments) > 50
        assert obs.open_segments() == []


class TestHistoryRecorderFastPath:
    """The correctness harness (repro.check) makes the same
    record-only claim as the span recorder: a run driven
    by ``RecordingClient`` + ``HistoryRecorder`` must schedule the
    byte-identical event calendar of one driven by plain
    ``ClosedLoopClient`` s — the recorded history describes exactly the
    execution that would have happened unrecorded."""

    def run_clients(self, config, recording):
        from repro import ClosedLoopClient
        from repro.check import HistoryRecorder, RecordingClient

        cluster = MinosCluster(model=LIN_SYNCH, config=config,
                               params=DEFAULT_MACHINE.with_nodes(3))
        workload = YcsbWorkload(records=12, requests_per_client=8,
                                write_fraction=0.6, seed=7)
        cluster.load_records(workload.initial_records())
        calendar = record_calendar(cluster.sim)
        recorder = HistoryRecorder(cluster.sim) if recording else None
        clients = []
        for node_id in range(3):
            engine = cluster.nodes[node_id].engine
            ops = workload.ops_for(node_id, 0)
            if recording:
                clients.append(RecordingClient(cluster, engine, ops,
                                               recorder, 0))
            else:
                clients.append(ClosedLoopClient(cluster, engine, ops, 0))
        for i, client in enumerate(clients):
            cluster.sim.spawn(client.run(), name=f"client.{i}")
        cluster.sim.run()
        return {
            "calendar": calendar,
            "events_processed": cluster.sim.events_processed,
            "history": recorder.history() if recorder else None,
        }

    def test_history_recording_is_calendar_transparent(self):
        for config in (MINOS_B, MINOS_O):
            plain = self.run_clients(config, recording=False)
            recorded = self.run_clients(config, recording=True)
            assert (recorded["events_processed"]
                    == plain["events_processed"])
            assert recorded["calendar"] == plain["calendar"]
            assert len(plain["calendar"]) > 1000, \
                "workload too small — the comparison is vacuous"

    def test_recording_run_captured_the_full_history(self):
        """Guard against vacuous transparency: the recorded run must
        have produced one completed history op per issued op."""
        recorded = self.run_clients(MINOS_O, recording=True)
        history = recorded["history"]
        assert len(history) == 3 * 8
        assert not history.pending


class _PassThroughInjector:
    """Injector-shaped object that faults nothing: every packet is
    delivered exactly once at its fault-free arrival time."""

    def deliveries(self, packet, when):
        yield packet, when


class TestInjectorFastPath:
    def test_pass_through_injector_matches_no_injector(self):
        """``Port._deliver`` skips the injector hook when none is set;
        a pass-through injector must therefore be indistinguishable
        from no injector at all."""
        def install(cluster):
            cluster.network.install_fault_injector(_PassThroughInjector())

        plain = run_small_workload(MINOS_B)
        hooked = run_small_workload(MINOS_B, setup=install)
        assert_identical(plain, hooked)


# -- the heap-only, one-entry-per-delivery reference kernel ------------------

def _reference_schedule_event(self, event, delay=0.0):
    if delay < 0:
        raise SimulationError(f"cannot schedule in the past (delay={delay})")
    if self.schedule_observer is not None:
        self.schedule_observer(event, delay)
    self._seq += 1
    heappush(self._queue, (self._now + delay, self._seq, event))


def _reference_call_at(self, when, callback, value=None, ticket=0):
    if when < self._now:
        raise SimulationError(f"call_at({when}) is in the past")
    event = Event(self)
    event._value = value
    event.callbacks.append(callback)
    if self.schedule_observer is not None:
        self.schedule_observer(event, when - self._now)
    if not ticket:
        ticket = self._seq = self._seq + 1
    heappush(self._queue, (when, ticket, event))


def _reference_step(self):
    self._now, _seq, event = heappop(self._queue)
    self.events_processed += 1
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks or ():
        callback(event)
    if event._pooled:
        event.callbacks, event._value = [], None
        self._timeout_pool.append(event)


def _reference_run(self, until=None):
    if until is not None and until < self._now:
        raise SimulationError(f"run(until={until}) is in the past")
    try:
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            _reference_step(self)
    except StopSimulation:
        return
    if until is not None:
        self._now = until


def _reference_run_until(self, event):
    while self._queue and not event.triggered:
        _reference_step(self)


def _reference_deliveries(self, deliveries):
    """One calendar entry per delivery, keyed as the kernel keys a delay."""
    sim = self.sim
    for packet, mailbox, when in deliveries:
        packet.delivered_at = when
        event = Event(sim)
        event._value = packet
        event.callbacks.append(mailbox._deliver_cb)
        sim._schedule_event(event, when - sim.now)


def install_reference_calendar(monkeypatch):
    for name, function in (("_schedule_event", _reference_schedule_event),
                           ("_schedule_now", _reference_schedule_event),
                           ("call_at", _reference_call_at),
                           ("_step", _reference_step),
                           ("run", _reference_run),
                           ("run_until", _reference_run_until)):
        monkeypatch.setattr(Simulator, name, function)
    monkeypatch.setattr(Port, "_schedule_deliveries", _reference_deliveries)


def count_folds(monkeypatch):
    """Spy on the fold: the returned list's one item accumulates
    Σ(run length − 1), i.e. the adjacent deliveries that share an
    arrival time."""
    folded = [0]
    fold = Port._schedule_deliveries

    def spy(self, deliveries):
        folded[0] += sum(1 for before, after in zip(deliveries,
                                                     deliveries[1:])
                         if before[2] == after[2])
        fold(self, deliveries)

    monkeypatch.setattr(Port, "_schedule_deliveries", spy)
    return folded


#: Drop, duplicate, delay and reorder on every inter-node link.
LOSSY = FaultPlan(seed=5, default=LinkFaults(drop=0.03, duplicate=0.15,
                                             delay=0.1, reorder=0.1))


def observe(config, model=LIN_SYNCH, nodes=3, plan=None):
    """One deterministic YCSB run -> everything it computed, plus its
    entry count."""
    cluster = MinosCluster(model=model, config=config,
                           params=DEFAULT_MACHINE.with_nodes(nodes))
    if plan is not None:
        cluster.enable_faults(plan)
    workload = YcsbWorkload(records=4 * nodes, requests_per_client=8,
                            write_fraction=0.6, seed=7)
    metrics = cluster.run_workload(workload, clients_per_node=1)
    network = cluster.network
    return {
        "latencies": (metrics.write_latency.samples,
                      metrics.read_latency.samples,
                      metrics.persist_latency.samples),
        "counters": asdict(metrics.counters),
        "faults": (asdict(cluster.fault_injector.counters)
                   if plan is not None else None),
        "now": cluster.sim.now,
        "traffic": [(name, network.port(name).packets_sent,
                     network.port(name).bytes_sent)
                    for name in network.endpoints()],
        "kv": [dict(node.kv.table.items()) for node in cluster.nodes],
    }, cluster.sim.events_processed


#: B/O x 5 models, the other Fig. 12 ablations, the baseline NIC's own
#: broadcast (``BaselineNic._tx_send``), 16 nodes, and a lossy fabric.
RUNS = ([(config, model, 3, None) for config in (MINOS_B, MINOS_O)
         for model in ALL_MODELS] +
        [(config, LIN_SYNCH, 3, None) for config in ABLATION_CONFIGS
         if config not in (MINOS_B, MINOS_O)] +
        [(ProtocolConfig(batching=True, broadcast=True), LIN_SYNCH, 3, None),
         (MINOS_O, LIN_SYNCH, 16, None), (MINOS_O, LIN_SYNCH, 3, LOSSY)])


class TestCalendarTiers:
    @pytest.mark.parametrize(
        "config, model, nodes, plan", RUNS,
        ids=[f"{config}-{model.name}-{nodes}n{'-lossy' if plan else ''}"
             for config, model, nodes, plan in RUNS])
    def test_matches_the_heap_only_reference(self, config, model, nodes,
                                             plan):
        """Same results as a one-heap calendar with one entry per
        delivery; the entry count drops by exactly the folded
        deliveries."""
        with pytest.MonkeyPatch.context() as patch:
            install_reference_calendar(patch)
            reference, reference_entries = observe(config, model, nodes,
                                                   plan)
        with pytest.MonkeyPatch.context() as patch:
            folded = count_folds(patch)
            result, entries = observe(config, model, nodes, plan)
        assert result == reference
        assert entries == reference_entries - folded[0]
        assert sum(len(samples) for samples in result["latencies"]) > 0
        # Hardware fan-out needs a dest-mapped message: host batching, or
        # the SNIC's own (MINOS-B+broadcast alone has nothing to fan out).
        fans_out = config.broadcast and (config.batching or config.offload)
        assert (folded[0] > 0) == (fans_out or plan is not None)

    def test_the_reference_is_really_heap_only(self, monkeypatch):
        """Guard against a vacuous oracle: under the reference no entry
        ever reaches the FIFO tier or shares a delivery entry."""
        install_reference_calendar(monkeypatch)
        sim = Simulator()
        sim.event().succeed()
        sim.call_at(0.0, lambda event: None)
        assert len(sim._queue) == 2 and not sim._ready
