#!/usr/bin/env python3
"""Benchmark of the betatiling library: one closed-loop client, one thread.

    python3 perfbench/run.py --workload query|decide|render|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is imported from
``src/`` and the transforms from ``configs/``.  The run sets the library up
several times (``setup_s`` is the median), then runs op blocks generated from
the seed until ``--seconds`` have passed at a block boundary, checking every
op's output.  A wrong answer or an exception is a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and with spans (see ``tracing.py``), prints the per-layer
metrics and the tracing overhead, and writes the spans to ``perfbench/out/``.  ``--smoke`` shrinks every workload
to a few seconds.  The last line of standard output is the result object;
the line before it is a report with sample counts, the tail percentile, the
error rate and the measured input properties.
"""

import os
import sys

# BLAS thread pools are capped before numpy loads: the benchmark is one client
# on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("query", "decide", "render")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "numfield.make_field_ms": "ms",
    "betamap.transform_ms": "ms",
    "betamap.compute_v_ms": "ms",
    "betamap.expand_ms": "ms",
    "betamap.expand_steps": "count",
    "betamap.is_admissible_ms": "ms",
    "betamap.expansion_value_ms": "ms",
    "tiling.gifs_build_ms": "ms",
    "tiling.periodic_points_ms": "ms",
    "tiling.periodic_points": "count",
    "tiling.check_w_ms": "ms",
    "tiling.covering_ms": "ms",
    "tiling.membership_ms": "ms",
    "tiling.membership_shift_k": "count",
    "tiling.clouds_ms": "ms",
    "tiling.cloud_points": "count",
    "tiling.cloud_bytes": "bytes",
    "tiling.natext_ms": "ms",
    "tiling.translates_ms": "ms",
    "sofic.automaton_ms": "ms",
    "sofic.automaton_states": "count",
    "sofic.difference_pairs_ms": "ms",
    "sofic.candidate_pairs": "count",
    "sofic.transducer_ms": "ms",
    "sofic.transducers_built": "count",
    "sofic.transducer_states": "count",
    "sofic.eigen_test_ms": "ms",
    "sofic.eigen_tests": "count",
    "sofic.decide_self_ms": "ms",
    "sofic.transducer_reuse_ratio": "ratio",
    "share.numfield_pct": "%",
    "share.betamap_pct": "%",
    "share.tiling_pct": "%",
    "share.sofic_pct": "%",
    "share.bench_pct": "%",
    "input.repeat_pct": "%",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for a quick check that everything runs")
    return ap.parse_args(argv)


def import_library():
    """Import betatiling from this checkout's src/, or exit with code 2."""
    if not (SRC / "betatiling" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no betatiling sources under {ROOT}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import betatiling
    if pathlib.Path(betatiling.__file__).resolve().parent != SRC / "betatiling":
        print(f"error: imported betatiling from {betatiling.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def run_op(wl, state, op, tracer):
    """Run and check one op: (latency in s or None, check info, error or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(state, op, tracer)
        dt = time.perf_counter() - t0
        return dt, wl.check(state, op, out), None
    except Exception as exc:  # every failure is counted, never skipped
        return None, None, f"{type(exc).__name__}: {exc}"


def run_blocks(blocks, seconds, step):
    """Call ``step`` on each op of each block until ``seconds`` have passed at
    a block boundary; returns the elapsed time."""
    start = time.perf_counter()
    for block in blocks:
        for op in block:
            step(op)
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def tail(values):
    """The highest percentile with at least ten samples beyond it, and its value."""
    s = sorted(values)
    if len(s) < 11:
        return 100.0, s[-1]
    k = len(s) - 11
    return 100.0 * (k + 1) / len(s), s[k]


def measure_untraced(wl, args, rng):
    from tracing import NullTracer
    null = NullTracer()
    setups = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(null)
        setups.append(time.perf_counter() - t0)
    ops, lats, infos, errors = [], [], [], []

    def step(op):
        lat, info, err = run_op(wl, state, op, null)
        if err:
            errors.append(f"op {len(ops)} {op}: {err}")
        ops.append(op)
        lats.append(lat)
        infos.append(info)

    elapsed = run_blocks(wl.blocks(state, rng), args.seconds, step)
    ok = [x * 1000.0 for x in lats if x is not None]
    pct, tail_ms = tail(ok) if ok else (100.0, 0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(ops) / elapsed,
        "latency_p50_ms": statistics.median(ok) if ok else 0.0,
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind = {}
    for op, lat in zip(ops, lats):
        if lat is not None:
            by_kind.setdefault(wl.kind(op), []).append(lat * 1000.0)
    extra = {"samples": len(ok), "setup_samples": len(setups),
             "tail_percentile": pct, "elapsed_s": elapsed,
             "latency_p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())}}
    return ops, infos, errors, metrics, END_TO_END, extra


def measure_traced(wl, args, rng):
    """Each op runs untraced and traced, in alternating order, so that drift in
    machine speed cancels out of the overhead."""
    import workloads
    from tracing import NullTracer, Tracer, layer_metrics
    null, tracer = NullTracer(), Tracer()
    state = wl.setup(null)
    with tracer.patched(workloads.PATCHES):
        state_traced = wl.setup(tracer)
    ops, infos, errors, pairs = [], [], [], []

    def step(op):
        n = len(pairs)
        tracer.set_op(n)
        lats = {}
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                with tracer.patched(workloads.PATCHES):
                    lat, info, err = run_op(wl, state_traced, op, tracer)
            else:
                lat, info, err = run_op(wl, state, op, null)
            if err:
                errors.append(f"op {n} {'traced' if traced else 'untraced'} {op}: {err}")
            ops.append(op)
            infos.append(info)
            lats[traced] = lat
        pairs.append((lats[False], lats[True]))

    run_blocks(wl.blocks(state, rng), args.seconds, step)
    both = [(a, b) for a, b in pairs if a is not None and b is not None]
    untraced = sum(a for a, _ in both)
    traced = sum(b for _, b in both)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_metrics(tracer, traced))
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    metrics["input.repeat_pct"] = 100.0 * sum(bool(op.get("repeat")) for op in ops) / len(ops)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra = {"samples": len(both), "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_op_s": untraced, "traced_op_s": traced}
    return ops, infos, errors, metrics, PER_LAYER, extra


def run_one(args):
    import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    wl = workloads.WORKLOADS[args.workload](ROOT, smoke=args.smoke)
    rng = random.Random(args.seed)
    measure = measure_traced if args.trace else measure_untraced
    ops, infos, errors, metrics, units, extra = measure(wl, args, rng)
    failed = len(errors)
    checked = [(op, info) for op, info in zip(ops, infos) if info is not None]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, **extra,
        "attempted": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "inputs": wl.report([op for op, _ in checked], [info for _, info in checked]),
        "errors": errors[:5],
    }
    print(json.dumps(report, default=str))
    for msg in errors[:5]:
        print(msg, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so that peak RSS is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
