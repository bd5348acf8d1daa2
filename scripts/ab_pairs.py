#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, judged by BENCHMARK.json.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] --seed S --pairs N

The workloads are measured one after the other, each with its own pairs and
table.  Each pair runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py``) once from each checkout, for ``run_seconds`` each; even
pairs run the parent first, odd pairs the change first, so drift in machine
speed falls on both sides.  Every run gets its own empty bytecode cache
(``PYTHONPYCACHEPREFIX`` in a fresh temporary directory, with
``PYTHONDONTWRITEBYTECODE=1``), so neither side imports from a stale
``__pycache__``.  For every end-to-end metric it prints the median
and quartiles of both sides, the pairs the change wins, the change/parent
ratio of the medians, and a verdict against the metric's bound:

- ``unresolved``: the parent's quartile spread exceeds the bound times its
  median, so the runs cannot tell a change of that size;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``gain``: the change wins at least nine pairs in ten and its median is
  better by more than the parent's quartile spread;
- ``ok``: none of these.

Below the table come the median of each side's ``tail_percentile`` (the
percentile that ``latency_tail_ms`` reads, so that a tail claim names it)
and, for each entry of the report line's ``latency_p50_ms_by_kind`` (one per
op kind, e.g. one per config in ``decide``), the median over each side's
runs and their ratio, so that a claim shows which kind moved.
Failed ops are summed per side.  The script reads ``BENCHMARK.json`` from
CHANGE_DIR and writes nothing.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile


def run(checkout, bench, workload, seed):
    cmd = list(bench["command"])
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    # every run compiles from source into its own empty bytecode cache: a
    # checkout's stale __pycache__ would import lighter than the other's
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(metric, parent, change):
    """Summary row of one end-to-end metric over paired runs."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (pm - cm) if lower else (cm - pm)
    if pm and (p3 - p1) / abs(pm) > bound:
        verdict = "unresolved"
    elif pm and -gain / abs(pm) > bound:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and gain > p3 - p1:
        verdict = "gain"
    else:
        verdict = "ok"
    return {"name": metric["name"], "parent": (pm, p1, p3), "change": (cm, c1, c3),
            "wins": wins, "ratio": cm / pm if pm else float("nan"),
            "bound": bound, "verdict": verdict}


def compare(args, bench, workload):
    """Run the pairs of one workload and print its table; returns the
    change's failed op count."""
    names = [m["name"] for m in bench["end_to_end"]]
    values = {side: {n: [] for n in names} for side in ("parent", "change")}
    by_kind = {side: {} for side in ("parent", "change")}
    tail_pct = {side: [] for side in ("parent", "change")}
    failed = {"parent": [0, 0], "change": [0, 0]}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            report, res = run(getattr(args, side), bench, workload, args.seed)
            tail_pct[side].append(report["tail_percentile"])
            for kind, ms in report["latency_p50_ms_by_kind"].items():
                by_kind[side].setdefault(kind, []).append(ms)
            for n in names:
                values[side][n].append(res["metrics"][n]["value"])
            failed[side][0] += res["failed"]
            failed[side][1] += res["attempted"]
        print(f"{workload} pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{n} {values['parent'][n][-1]:.4g}->{values['change'][n][-1]:.4g}"
            for n in names), file=sys.stderr, flush=True)
    print(f"{workload} seed {args.seed}, {args.pairs} pairs of "
          f"{bench['run_seconds']} s runs; median [q1, q3]")
    print(f"{'metric':18s} {'parent':>26s} {'change':>26s} {'wins':>6s} "
          f"{'ratio':>6s} {'bound':>5s}  verdict")
    for metric in bench["end_to_end"]:
        r = judge(metric, values["parent"][metric["name"]], values["change"][metric["name"]])
        cell = lambda q: f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"
        print(f"{r['name']:18s} {cell(r['parent']):>26s} {cell(r['change']):>26s} "
              f"{r['wins']:>3d}/{args.pairs:<2d} {r['ratio']:6.3f} {r['bound']:5.2f}  {r['verdict']}")
    print("latency_tail_ms reads percentile (median): " + ", ".join(
        f"{side} {statistics.median(tail_pct[side]):.4g}" for side in ("parent", "change")))
    print(f"{'latency_p50_ms of':30s} {'parent':>10s} {'change':>10s} {'ratio':>6s}")
    for kind in sorted(set(by_kind["parent"]) | set(by_kind["change"])):
        pm, cm = (statistics.median(by_kind[side].get(kind, [math.nan]))
                  for side in ("parent", "change"))
        print(f"{kind:30s} {pm:10.4g} {cm:10.4g} {cm / pm:6.3f}")
    for side in ("parent", "change"):
        print(f"failed ops, {side}: {failed[side][0]} of {failed[side][1]}")
    print(flush=True)
    return failed["change"][0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True, nargs="+", action="extend")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    failed = [compare(args, bench, w) for w in args.workload]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
