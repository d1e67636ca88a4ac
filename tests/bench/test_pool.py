"""The figure-sweep pool: ordered, fork-only, off the import path.

That whole figures give the same rows pooled and serially is pinned in
test_figures.py."""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro import MINOS_B, MINOS_O
from repro.bench.harness import ExperimentConfig
from repro.bench.pool import run_ordered
from repro.bench.sweep import Sweep
from repro.errors import ConfigError


def _slow_square(x):
    # Earlier points sleep longer, so workers finish out of order.
    time.sleep(0.02 * (4 - x))
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ConfigError("point 3 is bad")
    return x


class TestRunOrdered:
    def test_keeps_input_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_ordered(_slow_square, range(5)) == [0, 1, 4, 9, 16]

    def test_worker_exception_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ConfigError, match="point 3 is bad"):
            run_ordered(_fail_on_three, range(5))

    def test_trivial_inputs_run_in_process(self):
        assert run_ordered(_slow_square, []) == []
        # A lambda cannot cross a pickle boundary: one point never forks.
        assert run_ordered(lambda x: x + 1, [41]) == [42]


def test_no_fork_runs_serially_with_the_same_rows(monkeypatch):
    sweep = Sweep(ExperimentConfig(records=20, requests_per_client=5,
                                   clients_per_node=1, nodes=3),
                  axes={"config": [MINOS_B, MINOS_O]})
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pooled = sweep.run()
    real_get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert sweep.run() == pooled


def test_import_api_does_not_load_multiprocessing():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, repro.api; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
