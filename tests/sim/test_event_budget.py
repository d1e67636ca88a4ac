"""Work-count budget: calendar entries per client op.

Wall-clock speed is the ledger's business (``ledger/``, not tier-1);
what tier-1 can hold exactly is the *count of work* the ledger's
``sim.events_per_op`` row reports.  The callback-driven baseline NIC and
the removal of calendar entries that run no callback brought the 5-node
⟨Lin,Synch⟩ 50 %-write macro from 122.8 (MINOS-B) / 112.7 (MINOS-O)
entries per op to about 90 / 97; a change that quietly puts a generator
hop or a fire-and-forget timeout back shows up here.  Folding each
broadcast's same-instant deliveries into one entry then took MINOS-O
down by about 3 more (MINOS-B has no broadcast and did not move).

The bounds sit just above the measured spread: ``kv/hashtable.py``
probes with builtin ``hash()``, so the count wobbles with
``PYTHONHASHSEED`` (ROADMAP item 1), and tier-1 does not pin it.  At
this run's size, 241 hash seeds gave 93.5–94.5 (MINOS-B) entries per
op, and 120 hash seeds gave 97.7–99.0 (MINOS-O; 241 seeds gave
100.7–102.1 before the fold).
"""

import functools

import pytest

from repro.api import (DEFAULT_MACHINE, LIN_SYNCH, MINOS_B, MINOS_O,
                       MinosCluster, YcsbWorkload)
from repro.sim.events import Timeout


def run(config, write_fraction, requests_per_client, observer=None):
    """A 5-node x 3-client closed-loop YCSB run -> (entries per client
    op, cluster)."""
    cluster = MinosCluster(model=LIN_SYNCH, config=config,
                           params=DEFAULT_MACHINE.with_nodes(5))
    cluster.sim.schedule_observer = observer
    workload = YcsbWorkload(records=200,
                            requests_per_client=requests_per_client,
                            write_fraction=write_fraction, seed=42)
    counters = cluster.run_workload(workload, clients_per_node=3).counters
    ops = (counters.writes_completed + counters.writes_obsolete +
           counters.reads_completed)
    assert ops == 5 * 3 * requests_per_client
    return cluster.sim.events_processed / ops, cluster


@functools.lru_cache(maxsize=None)
def half_writes_per_op(config):
    """The budget macro (50 % writes, 100 requests per client)."""
    return run(config, 0.5, requests_per_client=100)[0]


@pytest.mark.parametrize("config, budget", [(MINOS_B, 95.0),
                                            (MINOS_O, 99.5)],
                         ids=["MINOS-B", "MINOS-O"])
def test_half_writes_stay_within_the_entry_budget(config, budget):
    assert half_writes_per_op(config) <= budget


def test_a_read_costs_five_entries():
    """A read never reaches a NIC: request, core grant, lookup, release,
    reply — and nothing this budget's changes may touch."""
    per_op, _ = run(MINOS_B, 0.0, requests_per_client=200)
    assert per_op == pytest.approx(5.0, abs=0.01)


@pytest.mark.parametrize("config", [MINOS_B, MINOS_O],
                         ids=["MINOS-B", "MINOS-O"])
def test_no_timeout_fires_without_a_waiter(config):
    """Callback census: every timeout on the calendar resumes somebody.

    ``Port.send`` / ``send_broadcast`` / ``transfer`` hand back an
    already-scheduled timeout; a caller that drops it (the four PCIe
    fire-and-forget sites did) buys a calendar entry that runs nothing.
    The observer keeps each timeout's callback list — the very list the
    kernel will run — and counts the ones still empty after the run.
    """
    scheduled = []

    def observer(event, _delay):
        if isinstance(event, Timeout):
            scheduled.append(event.callbacks)

    run(config, 0.5, requests_per_client=20, observer=observer)
    assert len(scheduled) > 1000
    assert sum(1 for callbacks in scheduled if not callbacks) == 0
