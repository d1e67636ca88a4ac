"""Every example script must run end-to-end (they are documentation)."""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(name, argv=("prog",)):
    old_argv = sys.argv
    sys.argv = list(argv)
    try:
        runpy.run_path(f"{EXAMPLES}/{name}", run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "MINOS-B" in out and "MINOS-O" in out
    assert "durable on all 5 replicas: True" in out


def test_model_checking(capsys):
    run_example("model_checking.py")
    out = capsys.readouterr().out
    assert out.count("PASS") == 10
    assert "counterexample" in out


def test_scope_persistency(capsys):
    run_example("scope_persistency.py")
    out = capsys.readouterr().out
    assert "scope durable on all replicas: True" in out


def test_failure_recovery(capsys):
    run_example("failure_recovery.py")
    out = capsys.readouterr().out
    assert "node2 sees: balance=300" in out


def test_profile_write(capsys):
    import json
    import os

    try:
        run_example("profile_write.py")
    finally:
        if os.path.exists("profile_write.trace.json"):
            with open("profile_write.trace.json") as handle:
                payload = json.load(handle)
            os.remove("profile_write.trace.json")
    out = capsys.readouterr().out
    # The offload architecture's extra SNIC phases are visible...
    assert "vfifo_residency" in out and "ack_wait" in out
    # ...and the exported trace is loadable.
    assert "valid" in out
    assert any(e.get("ph") == "X" for e in payload["traceEvents"])


@pytest.mark.slow
def test_ycsb_comparison(capsys):
    run_example("ycsb_comparison.py",
                argv=("prog", "--requests", "10", "--records", "50"))
    out = capsys.readouterr().out
    assert "MINOS-O" in out


@pytest.mark.slow
def test_microservice_login(capsys):
    run_example("microservice_login.py")
    out = capsys.readouterr().out
    assert "average reduction" in out


def test_trace_transaction_example(capsys):
    run_example("trace_transaction.py")
    out = capsys.readouterr().out
    assert "write:start" in out and "MINOS-O" in out


def test_latency_vs_load_example(capsys):
    run_example("latency_vs_load.py")
    out = capsys.readouterr().out
    assert "MINOS-B saturates first" in out
