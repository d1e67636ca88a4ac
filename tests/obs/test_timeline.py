"""The text swim-lane timeline (``repro trace``'s output) over a real
write: operation begin/end, protocol phases and instants per node."""

import pytest

from repro import LIN_SYNCH, MINOS_B, MINOS_O, MinosCluster
from repro.hw.params import MachineParams
from repro.obs import Observability, timeline
from repro.sim import Simulator

#: Layout of a timeline row: a 12-char time, then 24-char lanes, each
#: preceded by two spaces.
TIME_WIDTH, CELL, SEP = 12, 24, 2


def parse(text):
    """``(lane names, [(time_us, lane index, label), ...])``."""
    header, _rule, *body = text.splitlines()

    def cells(line):
        out = []
        start = TIME_WIDTH + SEP
        while start < len(line):
            out.append(line[start:start + CELL].strip())
            start += CELL + SEP
        return out

    lanes = cells(header)
    rows = []
    for line in body:
        labels = [(index, label) for index, label in enumerate(cells(line))
                  if label]
        assert len(labels) == 1, line
        rows.append((float(line[:TIME_WIDTH]),) + labels[0])
    return lanes, rows


def traced_write(config, nodes=3, writers=(0,)):
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=MachineParams(nodes=nodes))
    obs = cluster.attach_obs()
    cluster.load_records([("k", "v0")])
    for node in writers:
        cluster.write(node, "k", f"v{node + 1}")
    cluster.sim.run()
    return timeline(obs)


class TestTimeline:
    def test_empty_timeline(self):
        assert timeline(Observability(Simulator())) == "(no events)"


class TestClusterTimeline:
    @pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                             ids=lambda c: c.name)
    def test_write_lifecycle_recorded_in_order(self, config):
        lanes, rows = parse(traced_write(config))
        assert lanes == ["node 0", "node 1", "node 2"]
        writes = [label for _time, lane, label in rows
                  if lane == 0 and label.startswith("write:")]
        assert writes[0] == "write:start"
        assert writes[-1] == "write:complete"
        # Both followers handled the INV.
        assert {lane for _time, lane, label in rows
                if label.startswith("inv_handle")} == {1, 2}
        # Durability happened on every node (host log append on B, the
        # SmartNIC's NVM dFIFO on O).
        persist = "log_append" if config is MINOS_B else "dfifo_enqueue"
        assert {lane for _time, lane, label in rows
                if label.startswith(persist)} == {0, 1, 2}

    def test_timeline_renders_lanes(self):
        text = traced_write(MINOS_O, nodes=2)
        assert "node 0" in text and "node 1" in text
        assert "write:start" in text

    def test_events_monotone_in_time(self):
        for config in (MINOS_B, MINOS_O):
            _lanes, rows = parse(traced_write(config, nodes=2,
                                              writers=(0, 1)))
            times = [time for time, _lane, _label in rows]
            assert times == sorted(times)
            assert sum(label == "write:complete"
                       for _time, _lane, label in rows) == 2
