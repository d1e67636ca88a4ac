"""``run.py compare A.json B.json``: is B worse than A, row by row?

A and B are payloads written by ``run.py --out``.  Each (end-to-end
metric, workload) pair is its own row, judged against the bound that
``BENCHMARK.json`` fixes for the metric:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  one side's own quartiles lie further apart than the
                bound, so the run cannot tell — not "unchanged"

Simulated results and counts of modelled traffic (``spec.EXACT``) must
be bit-identical when both payloads used the same seed: a difference is
a model change, reported as ``worse``.  Every ratio is printed with its
base.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spec import EXACT, WORK_COUNTS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def judge(a: dict, b: dict, better: str, bound: float) -> tuple:
    """Verdict for one bounded row -> ``(verdict, worse_by)``;
    *worse_by* is the share of A's median by which B is worse (negative
    when B is better)."""
    base = a["value"]
    delta = (base - b["value"]) if better == "higher" else (b["value"] - base)
    worse_by = delta / base
    spread = max((cell["q3"] - cell["q1"]) / cell["value"]
                 for cell in (a, b))
    if spread > bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(a: dict, b: dict, benchmark: dict) -> list:
    """Rows ``(workload, metric, verdict, text)`` for every workload the
    two payloads share."""
    rows = []
    same_inputs = a.get("seed") == b.get("seed")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        same = same_inputs and side_a["params"] == side_b["params"]
        cells_a = side_a.get("end_to_end", {})
        cells_b = side_b.get("end_to_end", {})
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name not in cells_a or name not in cells_b:
                continue
            verdict, worse_by = judge(cells_a[name], cells_b[name],
                                      metric["better"], metric["bound"])
            ratio = cells_b[name]["value"] / cells_a[name]["value"]
            rows.append((workload, name, verdict,
                         f"B/A = {ratio:.4f} (A = {cells_a[name]['value']:.6g}"
                         f" {metric['unit']}, B = {cells_b[name]['value']:.6g}"
                         f"; worse by {worse_by:+.2%}, bound "
                         f"{metric['bound']:.0%})"))
        share_a = side_a["failed"] / side_a["attempted"]
        share_b = side_b["failed"] / side_b["attempted"]
        rows.append((workload, "failed_op_share",
                     "worse" if share_b > share_a else "ok",
                     f"A = {side_a['failed']} of {side_a['attempted']}, "
                     f"B = {side_b['failed']} of {side_b['attempted']}"))
        layer_a = side_a.get("per_layer", {})
        layer_b = side_b.get("per_layer", {})
        if not same or not layer_a or not layer_b:
            continue
        moved = [name for name in sorted(EXACT)
                 if layer_a[name]["value"] != layer_b[name]["value"]]
        for name in moved:
            rows.append((workload, name, "worse",
                         f"model changed: A = {layer_a[name]['value']!r}, "
                         f"B = {layer_b[name]['value']!r} at the same seed"))
        if not moved:
            rows.append((workload, "simulated results + traffic counts",
                         "ok", f"{len(EXACT)} metrics bit-identical"))
        for name, _, _ in WORK_COUNTS:
            va, vb = layer_a[name]["value"], layer_b[name]["value"]
            if va != vb:
                ratio = f"{vb / va:.4f}" if va else "n/a"
                rows.append((workload, name, "ok",
                             f"work count moved: B/A = {ratio} "
                             f"(A = {va:.6g}, B = {vb:.6g})"))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))
            for path in argv)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    for side, document in (("A", a), ("B", b)):
        if not document.get("comparable", False):
            print(f"warning: payload {side} is a --quick run; its numbers "
                  "are not comparable")
    rows = compare(a, b, benchmark)
    for workload, name, verdict, text in rows:
        print(f"{verdict:<11}{workload:<15}{name:<36}{text}")
    verdicts = [row[2] for row in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('worse')} worse, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "worse" in verdicts else 0
