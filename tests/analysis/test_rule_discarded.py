"""Discarded-event rule: scheduled events dropped by a bare statement."""

import textwrap
from pathlib import Path

NIC = Path(__file__).resolve().parents[2] / "src/repro/hw/nic.py"
RULE = "sim-discarded-event"


def _src(body, path="src/repro/hw/mod.py"):
    return {path: textwrap.dedent(body)}


class TestTrigger:
    def test_every_discarding_form_flagged(self, finding_index):
        index = finding_index(_src("""
            class Device:
                def deposit(self, packet):
                    self._pcie_up.send(packet, self.from_host)
                    self.port.send_broadcast(pairs, 64)
                    self._pcie_down.transfer(4096)
                    self.sim.sleep(1e-6)
                    sim.timeout(1e-6)
        """), only=[RULE])
        assert index[RULE] == [("src/repro/hw/mod.py", line)
                               for line in (4, 5, 6, 7, 8)]

    def test_symbol_names_the_method(self, check):
        result = check(_src("""
            class Device:
                def deposit(self, packet):
                    self._pcie_up.send(packet, self.from_host)
        """), only=[RULE])
        (finding,) = result.findings
        assert finding.symbol == "Device.deposit"
        assert "self._pcie_up.send" in finding.message


class TestClean:
    def test_consumed_events_allowed(self, finding_index):
        index = finding_index(_src("""
            class Device:
                def loop(self, packet):
                    yield self.port.send(packet, self.box)
                    done = self.port.transfer(64)
                    yield done
                    yield self.sim.sleep(1e-6)
                    return self.sim.timeout(2e-6)

                def deposit(self, packet):
                    self.port.post(packet, self.box)
                    self.sim.call_at(1.0, self.wake)
        """), only=[RULE])
        assert index == {}

    def test_sleep_on_something_else_allowed(self, finding_index):
        index = finding_index(_src("""
            def nap(timer):
                timer.sleep(1)
        """), only=[RULE])
        assert index == {}

    def test_outside_subsystems_ignored(self, finding_index):
        index = finding_index(_src("""
            def probe(port, packet, box):
                port.send(packet, box)
        """, path="src/repro/bench/probe.py"), only=[RULE])
        assert index == {}


class TestSeededMutant:
    """ROADMAP 2b: every rule has a live mutant — put the dead PCIe
    timeout back into a scratch copy of the real ``hw/nic.py``."""

    def test_real_nic_is_clean_and_the_mutant_is_not(self, finding_index):
        source = NIC.read_text()
        post = "self._pcie_up.post(packet, self.from_host)"
        assert source.count(post) == 1
        path = "src/repro/hw/nic.py"
        assert finding_index({path: source}, only=[RULE]) == {}
        mutant = source.replace(
            post, "self._pcie_up.send(packet, self.from_host)")
        line = 1 + source[:source.index(post)].count("\n")
        assert finding_index({path: mutant}, only=[RULE]) == {
            RULE: [(path, line)]}
