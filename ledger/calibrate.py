"""Machine-speed probe that knows nothing of this repository.

The sandbox's speed drifts by several percent over minutes (noisy
neighbours), far more than the bound a regression must be caught at, so
the ledger times this loop right before and after every timed repeat
and reports ops per calibration loop beside raw ops per second.

The loop is shaped like a discrete-event kernel — pop a calendar entry,
resume a generator, touch a table, push a new entry — over about a
megabyte of live objects, because a loop that fits the L1 cache slows
down less than the simulator does when a neighbour thrashes the shared
cache, and then under-corrects.
"""

from __future__ import annotations

import heapq
import time


def calibrate(seconds: float) -> float:
    """Run the loop for about *seconds*; returns loops per second."""
    def ticker(state):
        while True:
            state[0] += 1
            yield state

    procs = [ticker([0]) for _ in range(256)]
    heap = [((i * 0.37) % 1.0, i, procs[i % 256]) for i in range(2048)]
    heapq.heapify(heap)
    table = {f"user{i}": [i] for i in range(4096)}
    keys = list(table)
    pop, push = heapq.heappop, heapq.heappush
    loops = 0
    start = time.perf_counter()
    while True:
        for _ in range(1000):
            when, seq, proc = pop(heap)
            next(proc)
            table[keys[(seq * 7919) & 4095]][0] += 1
            push(heap, (when + ((seq * 7919) % 1009) * 1e-3, seq + 2048,
                        proc))
        loops += 1000
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return loops / elapsed
