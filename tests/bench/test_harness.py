"""Tests for the experiment harness."""

import pytest

from repro import LIN_SYNCH, MINOS_B, MINOS_O, SOCIAL_LOGIN
from repro.bench.harness import (ExperimentConfig, format_table,
                                 run_experiment, run_microservice)
from repro.core.baseline.engine import BaselineEngine
from repro.errors import ConfigError


class TestRunExperiment:
    def test_produces_complete_result(self):
        cfg = ExperimentConfig(records=30, requests_per_client=10,
                               clients_per_node=1, nodes=3)
        result = run_experiment(cfg)
        assert result.write_latency.count > 0
        assert result.read_latency.count > 0
        assert result.write_throughput > 0
        assert 0 <= result.breakdown.communication_fraction <= 1
        row = result.row()
        assert row["arch"] == "MINOS-B"
        assert row["nodes"] == 3

    def test_label(self):
        cfg = ExperimentConfig(config=MINOS_O, write_fraction=0.8)
        assert cfg.label() == "MINOS-O/<Lin, Synch>/n5/w80"

    def test_offload_beats_baseline_on_defaults(self):
        base = dict(records=50, requests_per_client=15, clients_per_node=2,
                    nodes=3)
        rb = run_experiment(ExperimentConfig(config=MINOS_B, **base))
        ro = run_experiment(ExperimentConfig(config=MINOS_O, **base))
        assert ro.write_latency.mean < rb.write_latency.mean


class TestMicroservice:
    def test_end_to_end_latency_includes_rtt(self):
        summary = run_microservice(SOCIAL_LOGIN, LIN_SYNCH, MINOS_B,
                                   nodes=3, invocations_per_node=2)
        assert summary.count == 3 * 2
        assert summary.mean > 500e-6  # at least the client RTT

    def test_stalled_driver_is_an_error(self, monkeypatch):
        # Node 0's reads wait on an event nothing ever triggers: the run
        # drains with that driver unfinished, which must not be reported
        # as a latency over the drivers that did finish.
        original = BaselineEngine.client_read

        def stalled(self, key):
            if self.node_id == 0:
                yield self.sim.event("never")
            return (yield from original(self, key))

        monkeypatch.setattr(BaselineEngine, "client_read", stalled)
        with pytest.raises(ConfigError, match="unfinished drivers"):
            run_microservice(SOCIAL_LOGIN, LIN_SYNCH, MINOS_B,
                             nodes=3, invocations_per_node=2)


class TestFormatTable:
    def test_alignment_and_content(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bee", "value": 20.25}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "20.25" in text
        assert len(lines) == 4

    def test_empty(self):
        assert format_table([]) == "(no rows)"


class TestHostUtilization:
    def test_offload_relieves_host_cpu(self):
        """The headline systems claim: offloading frees host cores."""
        base = dict(records=60, requests_per_client=25, clients_per_node=3,
                    nodes=3, write_fraction=1.0)
        rb = run_experiment(ExperimentConfig(config=MINOS_B, **base))
        ro = run_experiment(ExperimentConfig(config=MINOS_O, **base))
        assert 0 < ro.host_utilization < rb.host_utilization <= 1
