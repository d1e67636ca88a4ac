"""Ordered process-pool map for the paper's figure sweeps.

Every figure is a list of independent experiment points, and each point
is a pure function of its arguments (the repo's determinism invariant),
so the points can run in separate processes and the figure reduces the
results in input order exactly as a serial loop would: the rows do not
depend on the pool size.

The pool is **fork-only**.  Simulated timings still depend on the
interpreter's string-hash seed (``kv/hashtable.py`` probes with the
builtin ``hash``), and a ``spawn``-ed worker draws a fresh seed, so its
results would differ from the parent's.  A forked worker inherits the
parent's seed.  Where ``fork`` is unavailable the sweep runs serially.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

P = TypeVar("P")
R = TypeVar("R")


def run_ordered(fn: Callable[[P], R], points: Sequence[P]) -> List[R]:
    """``[fn(point) for point in points]``, over a fork pool when it helps.

    *fn* must be a top-level function and *points* picklable.  The pool
    has ``min(len(points), os.cpu_count())`` workers; it is skipped
    (serial, in-process) for fewer than two points or CPUs and without
    ``fork``.  An exception raised by *fn* in a worker is re-raised in
    the caller with the same type.
    """
    points = list(points)
    workers = min(len(points), os.cpu_count() or 1)
    if workers < 2:
        return [fn(point) for point in points]
    import multiprocessing  # not on the `import repro.api` path

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(point) for point in points]
    with context.Pool(workers) as pool:
        return pool.map(fn, points, chunksize=1)
