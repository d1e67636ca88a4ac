"""Fast-path parity rule: observer-only guards and fork equivalence."""

import textwrap


def _src(body):
    return {"src/repro/sim/network.py": textwrap.dedent(body)}


class TestObserverEffect:
    def test_mutating_guarded_arm_flagged(self, finding_index):
        index = finding_index(_src("""
            class Port:
                __slots__ = ("obs", "drops")

                def deliver(self, pkt):
                    if self.obs is not None:
                        self.drops = self.drops + 1
        """), only=["fastpath"])
        assert index["fastpath-observer-effect"] == [
            ("src/repro/sim/network.py", 6)]

    def test_trace_only_arm_allowed(self, finding_index):
        index = finding_index(_src("""
            class Port:
                __slots__ = ("obs",)

                def deliver(self, pkt):
                    if self.obs is not None:
                        size = len(pkt)
                        self.obs.instant(0, "deliver", size=size)
                        self.record(pkt)
                    self.schedule(pkt)
        """), only=["fastpath"])
        assert "fastpath-observer-effect" not in index


class TestDivergentFork:
    def test_divergent_arms_flagged(self, finding_index):
        index = finding_index(_src("""
            class Port:
                __slots__ = ("fault_injector",)

                def deliver(self, pkt):
                    if self.fault_injector is not None:
                        self.drop(pkt)
                    else:
                        self.schedule(pkt)
        """), only=["fastpath"])
        assert index["fastpath-divergent-fork"] == [
            ("src/repro/sim/network.py", 6)]

    def test_equivalent_arms_allowed(self, finding_index):
        # The Port._deliver shape: injector arm reschedules through the
        # same helper, then early-returns; tail is the plain path.
        index = finding_index(_src("""
            class Port:
                __slots__ = ("fault_injector",)

                def deliver(self, pkt, mailbox, when):
                    injector = self.fault_injector
                    if injector is not None:
                        for copy, arrival in injector.deliveries(pkt, when):
                            self._schedule_delivery(copy, mailbox, arrival)
                        return
                    self._schedule_delivery(pkt, mailbox, when)
        """), only=["fastpath"])
        assert index == {}

    def test_outside_subsystems_ignored(self, finding_index):
        index = finding_index({
            "src/repro/bench/harness.py": textwrap.dedent("""
                class Runner:
                    def run(self):
                        if self.obs is not None:
                            self.counter = 1
            """)}, only=["fastpath"])
        assert index == {}
