"""FaultInjector unit behavior: per-packet decisions, determinism, and
the pass-through guarantees."""

from repro.faults import FaultInjector, FaultPlan, LinkFaults, Partition
from repro.hw.params import us
from repro.sim.kernel import Simulator
from repro.sim.network import Packet


def packet(src="nic0", dst="nic1"):
    return Packet(payload="p", size_bytes=64, src=src, dst=dst)


def injector(plan):
    return FaultInjector(Simulator(), plan)


class TestDecisions:
    def test_certain_drop(self):
        inj = injector(FaultPlan(default=LinkFaults(drop=1.0)))
        assert inj.deliveries(packet(), when=0.0) == []
        assert inj.counters.dropped == 1

    def test_certain_duplicate(self):
        inj = injector(FaultPlan(default=LinkFaults(duplicate=1.0)))
        out = inj.deliveries(packet(), when=0.0)
        assert len(out) == 2
        original, copy = out[0][0], out[1][0]
        # clone() exists so the copies' timing fields are independent
        assert copy is not original
        assert copy.payload == original.payload
        copy.delivered_at = us(9)
        assert original.delivered_at == -1.0
        assert inj.counters.duplicated == 1

    def test_certain_delay_shifts_arrival(self):
        inj = injector(FaultPlan(
            default=LinkFaults(delay=1.0, delay_s=us(7))))
        ((_, arrival),) = inj.deliveries(packet(), when=us(1))
        assert arrival == us(1) + us(7)
        assert inj.counters.delayed == 1

    def test_reorder_adds_on_top_of_delay(self):
        inj = injector(FaultPlan(default=LinkFaults(
            delay=1.0, delay_s=us(5), reorder=1.0, reorder_s=us(20))))
        ((_, arrival),) = inj.deliveries(packet(), when=0.0)
        assert arrival == us(25)

    def test_partition_drops_both_directions(self):
        plan = FaultPlan(partitions=(
            Partition(start=0.0, end=us(100), group_a={0}, group_b={1}),))
        inj = injector(plan)
        assert inj.deliveries(packet("nic0", "nic1"), when=us(50)) == []
        assert inj.deliveries(packet("nic1", "nic0"), when=us(50)) == []
        assert inj.deliveries(packet("nic0", "nic1"), when=us(150)) != []
        assert inj.counters.partition_drops == 2

    def test_inactive_link_passes_through_untouched(self):
        inj = injector(FaultPlan())
        pkt = packet()
        assert inj.deliveries(pkt, when=us(3)) == [(pkt, us(3))]
        assert inj.counters.faults() == 0

    def test_non_nic_endpoints_are_never_faulted(self):
        # PCIe/host-local ports don't follow the nic<N> naming scheme and
        # must never be perturbed, even under a certain-drop plan.
        inj = injector(FaultPlan(default=LinkFaults(drop=1.0)))
        pkt = packet(src="host0", dst="nic1")
        assert inj.deliveries(pkt, when=0.0) == [(pkt, 0.0)]


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan.lossy(seed=5, drop=0.3, duplicate=0.2, delay=0.1)
        a, b = injector(plan), injector(plan)
        for i in range(300):
            src, dst = f"nic{i % 3}", f"nic{(i + 1) % 3}"
            out_a = a.deliveries(packet(src, dst), when=us(i))
            out_b = b.deliveries(packet(src, dst), when=us(i))
            assert len(out_a) == len(out_b)
            assert [arr for _, arr in out_a] == [arr for _, arr in out_b]
        assert a.counters.to_dict() == b.counters.to_dict()
        assert a.counters.faults() > 0

    def test_different_seeds_diverge(self):
        base = FaultPlan.lossy(seed=5, drop=0.3)
        a, b = injector(base), injector(base.with_seed(6))
        decisions_a = [len(a.deliveries(packet(), when=us(i)))
                       for i in range(200)]
        decisions_b = [len(b.deliveries(packet(), when=us(i)))
                       for i in range(200)]
        assert decisions_a != decisions_b

    def test_links_draw_independently(self):
        # Interleaving unrelated traffic on another link must not perturb
        # a link's decision stream (each directed link owns its RNG).
        plan = FaultPlan.lossy(seed=5, drop=0.3)
        quiet, busy = injector(plan), injector(plan)
        decisions_quiet = [
            len(quiet.deliveries(packet("nic0", "nic1"), us(i)))
            for i in range(100)]
        decisions_busy = []
        for i in range(100):
            busy.deliveries(packet("nic2", "nic1"), us(i))
            decisions_busy.append(
                len(busy.deliveries(packet("nic0", "nic1"), us(i))))
        assert decisions_quiet == decisions_busy
