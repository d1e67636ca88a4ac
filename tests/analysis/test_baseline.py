"""Baseline suppression file: matching, partition, exact round-trip."""

from repro.analysis import Baseline, Finding, Suppression


def _finding(rule="slots-required", path="src/repro/sim/kernel.py",
             symbol="Simulator", line=41):
    return Finding(rule=rule, path=path, line=line, symbol=symbol,
                   message="msg")


class TestMatching:
    def test_matches_on_rule_path_symbol(self):
        baseline = Baseline([Suppression(
            rule="slots-required", path="src/repro/sim/kernel.py",
            symbol="Simulator")])
        assert baseline.matches(_finding())
        assert baseline.matches(_finding(line=999))  # line-free
        assert not baseline.matches(_finding(symbol="Other"))
        assert not baseline.matches(_finding(rule="meta-direct-write"))

    def test_partition(self):
        baseline = Baseline([Suppression(
            rule="slots-required", path="src/repro/sim/kernel.py",
            symbol="Simulator")])
        live, suppressed = baseline.partition(
            [_finding(), _finding(symbol="Fresh")])
        assert [f.symbol for f in suppressed] == ["Simulator"]
        assert [f.symbol for f in live] == ["Fresh"]


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        baseline = Baseline([
            Suppression(rule="b", path="z.py", symbol="S", reason="why"),
            Suppression(rule="a", path="a.py", symbol="T"),
        ])
        path = tmp_path / "lint-baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded == baseline
        # Saving the loaded copy is byte-identical (no churn on commit).
        again = tmp_path / "again.json"
        loaded.save(again)
        assert path.read_text() == again.read_text()

    def test_entries_sorted(self):
        baseline = Baseline([
            Suppression(rule="z", path="p", symbol="s"),
            Suppression(rule="a", path="p", symbol="s"),
        ])
        assert [s.rule for s in baseline.entries] == ["a", "z"]

    def test_from_findings(self):
        baseline = Baseline.from_findings(
            [_finding(), _finding()], reason="grandfathered")
        assert len(baseline) == 1
        assert baseline.entries[0].reason == "grandfathered"

    def test_committed_repo_baseline_round_trips(self):
        """The checked-in lint-baseline.json is in canonical form."""
        from repro.analysis.core import find_project_root

        path = find_project_root() / "lint-baseline.json"
        loaded = Baseline.load(path)
        import json

        assert (json.dumps(loaded.to_dict(), indent=2) + "\n"
                == path.read_text())
