#!/usr/bin/env python3
"""Perf ledger: simulated client ops per wall-second, layer by layer.

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, one result line (the BENCHMARK.json contract):
        --trace 0 prints the end-to-end metrics, --trace 1 the layer table
    python3 ledger/run.py [--seed N] [--seconds S] [--quick] [--out F]
        all four workloads, both passes, one payload
    python3 ledger/run.py compare A.json B.json
        verdict per (metric, workload) row between two payloads

This process never imports the system under test: every measurement
happens in a fresh ``worker.py`` interpreter started with
``PYTHONHASHSEED=0`` and a scrubbed environment, one at a time, so at
most one thread is ever busy.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spec import END_TO_END, LAYERS, PER_LAYER, SCHEMA, WORKLOADS, sized

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
SRC = ROOT / "src"

#: A worker that has not finished by then is killed (the contract gives
#: a run 180 s in all).
WORKER_TIMEOUT_S = 150.0
#: Cold starts timed per run; ``setup_s`` is their median.
COLD_STARTS = 9
#: Cold starts of the traced run (they only feed the ``setup.*`` split).
TRACE_COLD_STARTS = 3
#: Timed repeats per batch when a run's own quartiles are taken: eight
#: eighth-size repeats, i.e. one full-size workload's worth of ops.
BATCH = 8
#: Calibration drift above this marks the run ``noisy``.
NOISY_DRIFT = 0.10


class LedgerError(Exception):
    """A worker died, hung, or broke the determinism pin."""


# -- workers ---------------------------------------------------------------


def worker_env() -> dict:
    """Nothing of the caller's environment reaches a worker except PATH;
    the hash seed is pinned because ``kv/hashtable.py`` probes with
    builtin ``hash()`` on str keys (see README, "Known defect")."""
    return {"PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC),
            "PATH": os.environ.get("PATH", "")}


def launch(mode: str, workload: str, seed: int, seconds: float = 0.0,
           quick: bool = False) -> tuple:
    """Run one worker to completion.

    Returns ``(start_s, ready, result)``: wall seconds from process
    creation to the worker's ``ready`` line (the cold start as a user
    waits for it), that line, and the worker's last line.
    """
    cmd = [sys.executable, str(LEDGER / "worker.py"), mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    begin = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        start_s = time.monotonic() - begin
        rest = proc.stdout.read()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    lines = [line for line in rest.splitlines() if line.strip()]
    if proc.returncode != 0 or not ready_line.strip() or not lines:
        raise LedgerError(
            f"worker {mode} {workload} --seed {seed} failed "
            f"(exit code {proc.returncode}); its traceback is above")
    return start_s, json.loads(ready_line), json.loads(lines[-1])


def cold_starts(workload: str, seed: int, count: int, quick: bool) -> dict:
    """*count* fresh interpreters -> lists of ``setup_s`` and its split.
    The bytecode cache is warm: a measuring worker always ran first."""
    samples: dict = {"setup_s": []}
    for _ in range(count):
        start_s, ready, result = launch("coldstart", workload, seed,
                                        quick=quick)
        samples["setup_s"].append(start_s)
        for name, value in {**ready, **result}.items():
            if name.startswith("setup."):
                samples.setdefault(name, []).append(value)
    return samples


# -- one workload ----------------------------------------------------------


def summarize(values: list, batch: int = 1) -> dict:
    """Median of one metric's samples, with the quartiles that say how
    far the run disagrees with itself.  With *batch* > 1 the quartiles
    are taken over the medians of consecutive batches of that many
    samples: single half-second repeats scatter by several percent, and
    what `compare` must know is how far the *median* can be trusted."""
    points = values
    if batch > 1 and len(values) >= 2 * batch:
        points = [statistics.median(values[i:i + batch])
                  for i in range(0, len(values) - batch + 1, batch)]
    if len(points) == 1:
        q1 = q3 = points[0]
    else:
        q1, _, q3 = statistics.quantiles(points, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def tally(repeats: list, workload: str, seed: int) -> dict:
    """Correctness of a worker's repeats: every gate passed and every
    repeat produced the same simulated results (the determinism pin).
    A repeat whose gate fails counts all its ops as failed."""
    attempted = sum(rep["attempted"] for rep in repeats)
    failed = sum(rep["attempted"] - rep["completed"] if rep["ok"]
                 else rep["attempted"] for rep in repeats)
    for rep in repeats:
        if not rep["ok"]:
            print(f"GATE FAILED: {workload} --seed {seed}: {rep['error']}",
                  file=sys.stderr)
    first: dict = {}
    for rep in repeats:
        # Repeats of one op stream must agree to the last bit.
        same = first.setdefault(rep["index"], rep)
        if rep["sim"] != same["sim"]:
            raise LedgerError(
                f"{workload} --seed {seed}: two repeats of one op stream "
                "gave different simulated results under PYTHONHASHSEED=0 — "
                f"determinism is broken: {same['sim']} != {rep['sim']}")
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0, "sim": repeats[0]["sim"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    """One pass over one workload -> a payload section."""
    mode = "trace" if trace else "measure"
    _, _, result = launch(mode, workload, seed, seconds, quick)
    repeats = result["repeats"]
    # The untraced pass ran the full-size stream once, untimed: it must
    # pass the gate too, and its simulated results head the section.
    section = tally(repeats if trace else [result["full"]] + repeats,
                    workload, seed)
    section["params"] = sized(workload, quick)
    count = 2 if quick else (TRACE_COLD_STARTS if trace else COLD_STARTS)
    colds = cold_starts(workload, seed, count, quick)
    if trace:
        per_layer = dict(result["per_layer"])
        for name, values in colds.items():
            if name.startswith("setup."):
                per_layer[name] = statistics.median(values)
        drift = per_layer["machine.calib_drift"]
        section["per_layer"] = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
    else:
        rates = [rep["completed"] / rep["wall_s"] for rep in repeats]
        calib = [rep["calib_loops_per_s"] for rep in repeats]
        drift = abs(calib[-1] - calib[0]) / calib[0]
        values = {
            "ops_per_s": summarize(rates, BATCH),
            # Each repeat against the calibrations on either side of it.
            "ops_per_mloop": summarize(
                [rate / (loops / 1e6) for rate, loops in zip(rates, calib)],
                BATCH),
            "setup_s": summarize(colds["setup_s"]),
            "peak_rss_mb": summarize([result["peak_rss_mb"]])}
        section["end_to_end"] = {
            name: {**values[name], "unit": unit}
            for name, unit, _ in END_TO_END}
        section["machine"] = {
            "machine.calib_loops_per_s": statistics.median(calib),
            "machine.calib_drift": drift}
    section["noisy"] = drift > NOISY_DRIFT
    return section


# -- output ------------------------------------------------------------------


def print_section(workload: str, section: dict) -> None:
    status = "ok" if section["correct"] else "INCORRECT"
    if section["noisy"]:
        status += ", noisy (calibration drifted > 10 %)"
    print(f"== {workload}: {section['attempted']} ops attempted, "
          f"{section['failed']} failed, {status}")
    for name, cell in section.get("end_to_end", {}).items():
        print(f"  {name:<28}{cell['value']:>14.4f} {cell['unit']:<6} "
              f"[q1 {cell['q1']:.4f}, q3 {cell['q3']:.4f}, n={cell['n']}]")
    per_layer = section.get("per_layer")
    if not per_layer:
        return
    print(f"  {'layer':<16}{'self_share':>12}{'calls/op':>12}")
    shares = sorted(LAYERS, reverse=True,
                    key=lambda l: per_layer[f"{l}.self_share"]["value"])
    for layer in shares:
        share = per_layer[f"{layer}.self_share"]["value"]
        if share > 0.0:
            calls = per_layer[f"{layer}.calls_per_op"]["value"]
            print(f"  {layer:<16}{share:>12.4f}{calls:>12.2f}")
    for name, cell in per_layer.items():
        if not name.endswith((".self_share", ".calls_per_op")):
            print(f"  {name:<28}{cell['value']:>14.4f} {cell['unit']}")


def contract_line(section: dict, trace: bool) -> str:
    cells = section["per_layer" if trace else "end_to_end"]
    metrics = {name: {"value": cell["value"], "unit": cell["unit"]}
               for name, cell in cells.items()}
    return json.dumps({"correct": section["correct"],
                       "attempted": section["attempted"],
                       "failed": section["failed"], "metrics": metrics})


def payload(args, sections: dict) -> dict:
    return {"schema": SCHEMA, "comparable": not args.quick,
            "seed": args.seed, "seconds": args.seconds,
            "python": sys.version.split()[0], "workloads": sections}


def write_out(path, document: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(document, indent=1) + "\n",
                              encoding="utf-8")


def run_all(args) -> int:
    """Every workload, untraced pass then traced pass, one payload."""
    sections = {}
    for workload in WORKLOADS:
        section = run_workload(workload, args.seed, args.seconds, False,
                               args.quick)
        traced = run_workload(workload, args.seed, args.seconds, True,
                              args.quick)
        if section["sim"] != traced["sim"]:
            raise LedgerError(
                f"{workload} --seed {args.seed}: two interpreters gave "
                "different simulated results for the same full-size run "
                "under PYTHONHASHSEED=0 — determinism is broken")
        section["per_layer"] = traced["per_layer"]
        for key in ("attempted", "failed"):
            section[key] += traced[key]
        section["correct"] = section["correct"] and traced["correct"]
        section["noisy"] = section["noisy"] or traced["noisy"]
        print_section(workload, section)
        sections[workload] = section
    document = payload(args, sections)

    write_p50 = {name: section["per_layer"]["sim_write_p50_us"]["value"]
                 for name, section in sections.items()}
    ratio = write_p50["ycsb-b-w50"] / write_p50["ycsb-o-w50"]
    document["model.o_vs_b_write_p50_x"] = ratio
    print(f"model.o_vs_b_write_p50_x {ratio:.3f}  (MINOS-O write p50 is "
          "that many times lower than MINOS-B's at this one point; the "
          "paper's Fig 9 average is 2.1x)")
    write_out(args.out, document)
    correct = all(section["correct"] for section in sections.values())
    print(json.dumps({"correct": correct, "comparable": not args.quick,
                      "workloads": list(sections)}))
    return 0 if correct else 1


def run_one(args) -> int:
    trace = bool(args.trace)
    section = run_workload(args.workload, args.seed, args.seconds, trace,
                           args.quick)
    print_section(args.workload, section)
    write_out(args.out, payload(args, {args.workload: section}))
    print(contract_line(section, trace))
    return 0 if section["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four, both passes)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time the untraced repeats fill (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size smoke run; not comparable")
    parser.add_argument("--out", help="write the full payload here")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 0.5)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"ledger: no system under test at {SRC}", file=sys.stderr)
        return 2
    try:
        return run_one(args) if args.workload else run_all(args)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
