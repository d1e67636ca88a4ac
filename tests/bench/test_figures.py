"""Smoke tests of the per-figure experiment definitions.

The real assertions about figure *shapes* live in benchmarks/ (run with
--benchmark-only); here we verify the experiment plumbing at smoke scale:
row structure, normalization conventions, and knob coverage.  The fig12,
fig13 and Table I tests also pin that a sweep's rows are identical on
the fork pool and serially.
"""

import os

import pytest

from repro.bench.figures import SCALES, fig4, fig12, fig13, tab1


def pooled_equals_serial(monkeypatch, figure):
    """*figure()* on a two-worker fork pool, checked ``==`` against the
    same sweep run serially in-process; returns the rows."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows = figure()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert figure() == rows
    return rows


class TestScales:
    def test_presets(self):
        assert set(SCALES) == {"smoke", "default", "full"}
        assert SCALES["full"][0] == 100_000  # the paper's database size


class TestFig4:
    def test_rows_cover_all_models(self):
        rows = fig4("smoke")
        assert [r["model"] for r in rows] == [
            "<Lin, Synch>", "<Lin, Strict>", "<Lin, REnf>",
            "<Lin, Event>", "<Lin, Scope>"]
        for row in rows:
            assert row["comm_us"] + row["comp_us"] == \
                pytest.approx(row["total_us"], rel=1e-6)


class TestFig12:
    def test_normalized_to_baseline(self, monkeypatch):
        rows = pooled_equals_serial(monkeypatch, lambda: fig12("smoke"))
        assert rows[0]["arch"] == "MINOS-B"
        assert rows[0]["normalized"] == pytest.approx(1.0)
        assert len(rows) == 7


class TestFig13:
    def test_covers_paper_sizes(self, monkeypatch):
        rows = pooled_equals_serial(
            monkeypatch, lambda: fig13("smoke", sizes=(1, 5, None)))
        labels = [r["fifo_entries"] for r in rows]
        assert labels == [1, 5, "unlimited"]
        unlimited = rows[-1]
        assert unlimited["normalized"] == pytest.approx(1.0)


#: Table I's explored state space at ``nodes=2``: (states, transitions)
#: per (arch, model).  Any edit to the abstract spec that moves one of
#: these numbers changes what Table I checks, so it must show here.
TAB1_STATE_SPACE = {
    ("MINOS-B", "<Lin, Synch>"): (349, 790),
    ("MINOS-B", "<Lin, Strict>"): (2849, 10209),
    ("MINOS-B", "<Lin, REnf>"): (1561, 5228),
    ("MINOS-B", "<Lin, Event>"): (1096, 3644),
    ("MINOS-B", "<Lin, Scope>"): (1202, 3903),
    ("MINOS-O", "<Lin, Synch>"): (2969, 11899),
    ("MINOS-O", "<Lin, Strict>"): (17549, 87214),
    ("MINOS-O", "<Lin, REnf>"): (13661, 69247),
    ("MINOS-O", "<Lin, Event>"): (7124, 33764),
    ("MINOS-O", "<Lin, Scope>"): (7352, 34402),
}


class TestTab1:
    def test_all_models_pass(self, monkeypatch):
        rows = pooled_equals_serial(monkeypatch, lambda: tab1(nodes=2))
        assert len(rows) == 10
        assert all(r["result"] == "PASS" for r in rows)
        assert {(r["arch"], r["model"]): (r["states"], r["transitions"])
                for r in rows} == TAB1_STATE_SPACE
