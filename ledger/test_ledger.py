"""Tests of the ledger itself.  Not part of tier-1 (pyproject's
``testpaths`` is ``tests``); run explicitly:

    python -m pytest ledger -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import spec

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "ledger/run.py"]
    assert BENCHMARK["paths"] == ["ledger"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_benchmark_json_limits_and_names():
    workloads = BENCHMARK["workloads"]
    end_to_end = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [row["name"] for row in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in workloads:
        assert set(row) == {"name", "why"}
        assert 0 < len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in end_to_end:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in per_layer:
        assert set(row) == {"name", "unit", "better"}
    for row in end_to_end + per_layer:
        assert UNIT.match(row["unit"])
        assert row["better"] in ("higher", "lower")
    setup = next(row for row in end_to_end if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in end_to_end)


def test_benchmark_json_agrees_with_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(spec.PER_LAYER)
    assert spec.EXACT <= {name for name, _, _ in spec.PER_LAYER}


# -- layer bucketing ----------------------------------------------------------


@pytest.mark.parametrize("filename, layer", [
    ("/x/src/repro/sim/kernel.py", "sim.kernel"),
    ("/x/src/repro/sim/process.py", "sim.process"),
    ("/x/src/repro/sim/network.py", "sim.network"),
    ("/x/src/repro/hw/nic.py", "hw.nic"),
    ("/x/src/repro/hw/smartnic.py", "hw.smartnic"),
    ("/x/src/repro/hw/params.py", "other"),
    ("/x/src/repro/core/engine.py", "core.engine"),
    ("/x/src/repro/core/baseline/engine.py", "core.baseline"),
    ("/x/src/repro/core/offload/engine.py", "core.offload"),
    ("/x/src/repro/core/recovery.py", "core.recovery"),
    ("/x/src/repro/core/timestamp.py", "core.meta"),
    ("/x/src/repro/core/messages.py", "core.meta"),
    ("<repro.compile:MINOS-B/<Lin, Synch>/MINOS-B>", "core.compiled"),
    ("/x/src/repro/compile/factory.py", "compile"),
    ("/x/src/repro/kv/hashtable.py", "kv"),
    ("/x/src/repro/cluster/client.py", "cluster"),
    ("/x/src/repro/workloads/zipfian.py", "workloads"),
    ("/x/src/repro/metrics/stats.py", "metrics"),
    ("/x/src/repro/obs/recorder.py", "obs"),
    ("/x/src/repro/faults/injector.py", "faults"),
    ("/x/src/repro/check/wgl.py", "check"),
    ("/x/src/repro/ckpt/manager.py", "ckpt"),
    ("/usr/lib/python3.11/random.py", "other"),
    ("/x/ledger/worker.py", "other"),
])
def test_layer_of(filename, layer):
    assert layers.layer_of(filename) == layer
    assert layer in spec.LAYERS


def test_builtin_self_time_is_charged_to_the_calling_layer():
    kernel = ("/x/src/repro/sim/kernel.py", 182, "run")
    resume = ("/x/src/repro/sim/process.py", 64, "_resume")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    send = ("~", 0, "<method 'send' of 'generator' objects>")
    orphan = ("~", 0, "<built-in method builtins.exec>")
    stats = {
        kernel: (1, 1, 2.0, 10.0, {}),
        resume: (50, 50, 1.0, 4.0, {kernel: (50, 50, 1.0, 4.0)}),
        # heappush: 0.3 s called from the kernel, 0.1 s from _resume.
        heappush: (40, 40, 0.4, 0.4, {kernel: (30, 30, 0.3, 0.3),
                                       resume: (10, 10, 0.1, 0.1)}),
        send: (50, 50, 0.5, 3.0, {resume: (50, 50, 0.5, 3.0)}),
        orphan: (1, 1, 0.25, 10.0, {}),
    }
    table = layers.layer_table(stats)
    assert table["sim.kernel"] == {"self_s": pytest.approx(2.3), "calls": 1}
    assert table["sim.process"] == {"self_s": pytest.approx(1.6),
                                    "calls": 50}
    assert table["other"] == {"self_s": pytest.approx(0.25), "calls": 0}
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(sum(entry[2] for entry in stats.values()))
    assert layers.calls_of(stats, "/repro/sim/process.py", "_resume") == 50


# -- compare -------------------------------------------------------------------


def _cell(value, q1=None, q3=None):
    return {"value": value, "unit": "u", "n": 5,
            "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def _payload(speed, sim_write_p50=10.0, events_per_op=120.0, failed=0,
             seed=42):
    """One-workload payload; *speed* is the cell of both rate metrics
    (raw without its quartiles)."""
    per_layer = {name: {"value": 1.0, "unit": unit}
                 for name, unit, _ in spec.PER_LAYER}
    per_layer["sim_write_p50_us"]["value"] = sim_write_p50
    per_layer["sim.events_per_op"]["value"] = events_per_op
    section = {"params": {"requests": 800}, "attempted": 1000,
               "failed": failed, "correct": not failed, "noisy": False,
               "end_to_end": {"ops_per_s": _cell(speed["value"]),
                              "ops_per_mloop": speed,
                              "setup_s": _cell(0.2, 0.199, 0.201),
                              "peak_rss_mb": _cell(37.0)},
               "per_layer": per_layer}
    return {"schema": spec.SCHEMA, "comparable": True, "seed": seed,
            "workloads": {"ycsb-b-w50": section}}


def _verdicts(a, b):
    return {name: verdict
            for _, name, verdict, _ in compare.compare(a, b, BENCHMARK)}


def test_compare_a_a_is_ok_everywhere():
    verdicts = _verdicts(_payload(_cell(3000.0, 2990.0, 3010.0)),
                         _payload(_cell(2950.0, 2940.0, 2960.0)))
    assert set(verdicts.values()) == {"ok"}
    assert "simulated results + traffic counts" in verdicts


def test_compare_flags_a_drop_beyond_the_bound_as_worse():
    verdicts = _verdicts(_payload(_cell(3000.0)), _payload(_cell(2800.0)))
    assert verdicts["ops_per_mloop"] == "worse"  # -6.7 %, bound 5 %
    assert verdicts["ops_per_s"] == "ok"         # ... bound 15 %
    assert verdicts["setup_s"] == "ok"
    # A gain is never "worse", whatever its size.
    assert _verdicts(_payload(_cell(3000.0)),
                     _payload(_cell(6000.0)))["ops_per_mloop"] == "ok"


def test_compare_reports_wide_quartiles_as_unresolved():
    wide = _cell(3000.0, 2800.0, 3100.0)  # 10 % apart, bound is 5 %
    assert _verdicts(_payload(wide),
                     _payload(_cell(2990.0)))["ops_per_mloop"] == "unresolved"


def test_compare_treats_a_moved_simulated_result_as_a_model_change():
    verdicts = _verdicts(_payload(_cell(3000.0)),
                         _payload(_cell(3000.0), sim_write_p50=10.000001))
    assert verdicts["sim_write_p50_us"] == "worse"
    # ... but only when both sides ran the same inputs,
    other_seed = _verdicts(_payload(_cell(3000.0)),
                           _payload(_cell(3000.0), sim_write_p50=11.0,
                                    seed=7))
    assert "sim_write_p50_us" not in other_seed
    # and a work count may move: that is what ROADMAP item 2 is for.
    assert _verdicts(_payload(_cell(3000.0)),
                     _payload(_cell(3000.0), events_per_op=60.0)
                     )["sim.events_per_op"] == "ok"


def test_compare_counts_any_new_failed_op_as_worse():
    assert _verdicts(_payload(_cell(3000.0)),
                     _payload(_cell(3000.0), failed=1)
                     )["failed_op_share"] == "worse"


def test_summarize_takes_quartiles_over_batch_medians():
    import run

    values = [10.0, 30.0, 20.0, 21.0, 19.0, 20.0]
    plain = run.summarize(values)
    assert plain["value"] == 20.0 and plain["n"] == 6
    assert plain["q3"] - plain["q1"] > 5
    batched = run.summarize(values, batch=3)  # batch medians: 20, 20
    assert (batched["value"], batched["q1"], batched["q3"]) == (20.0,) * 3
    assert run.summarize([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0,
                                    "n": 1}


# -- the real thing, tenth size ---------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def quick_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = _run(str(LEDGER / "run.py"), "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text(encoding="utf-8"))


def test_quick_run_reports_every_metric_on_every_workload(quick_payload):
    _, document = quick_payload
    assert document["comparable"] is False
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    for section in document["workloads"].values():
        assert section["correct"] and section["failed"] == 0
        assert list(section["end_to_end"]) == [
            name for name, _, _ in spec.END_TO_END]
        assert all(cell["value"] > 0
                   for cell in section["end_to_end"].values())
        per_layer = section["per_layer"]
        assert list(per_layer) == [name for name, _, _ in spec.PER_LAYER]
        shares = {layer: per_layer[f"{layer}.self_share"]["value"]
                  for layer in spec.LAYERS}
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
        assert shares["other"] < 0.10
    assert 1.5 < document["model.o_vs_b_write_p50_x"] < 2.5


def test_quick_run_layer_table_tells_the_workloads_apart(quick_payload):
    _, document = quick_payload

    def value(workload, name):
        return document["workloads"][workload]["per_layer"][name]["value"]

    assert value("ycsb-b-w50", "hw.nic.self_share") > 0.03
    assert value("ycsb-b-w50", "hw.smartnic.self_share") == 0.0
    assert value("ycsb-o-w50", "hw.smartnic.self_share") > 0.03
    assert value("ycsb-o-w50", "hw.nic.self_share") < 0.01
    assert 100 < value("ycsb-b-w50", "sim.events_per_op") < 140
    assert 100 < value("ycsb-o-w50", "sim.events_per_op") < 130
    assert 4.9 < value("ycsb-b-r100", "sim.events_per_op") < 5.2
    assert value("check-o-scope", "core.retransmits_per_kop") > 0
    assert value("check-o-scope", "obs.share_of_wall") > 0.02
    assert value("check-o-scope", "check.schedules") > 0
    assert value("ycsb-b-w50", "trace.overhead_x") > 1.0


def test_compare_cli_on_a_payload_against_itself(quick_payload):
    out, _ = quick_payload
    done = _run(str(LEDGER / "run.py"), "compare", str(out), str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 worse" in done.stdout and "not comparable" in done.stdout


def test_contract_line_and_gate_exit_code(tmp_path):
    done = _run(str(LEDGER / "run.py"), "--workload", "ycsb-b-r100",
                "--seed", "3", "--seconds", "1", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {name: cell["unit"] for name, cell in line["metrics"].items()} \
        == {name: unit for name, unit, _ in spec.END_TO_END}


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("ledger/run.py", "--workload", "ycsb-b-w50", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
