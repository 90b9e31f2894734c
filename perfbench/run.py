"""Live-service benchmark for ``repro serve``.

Usage::

    python3 perfbench/run.py --workload lookup-sampled --seed 1 --seconds 20 --trace 0

Boots a real ``repro serve`` from this checkout's ``src/`` as a
subprocess, drives it from this one process over at most two load
connections, checks every answer, and prints every metric with its
unit and sample count, then one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the seconds each, untraced and then with span
recorders around the layers' public functions (``spans.py``), prints
the tracing overhead, and reports the per-layer metrics.  README.md
explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description="Live-service benchmark for repro serve.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "net", "service.py")):
        print(f"error: no repro sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import bench
    import fleet
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}, one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, fleet.GEN_CPUS)
    rundir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(rundir)
    run = bench.Bench(ROOT, workload, args.seed, rundir)
    try:
        if args.trace:
            plain = run.run(args.seconds / 2, traced=False)
            traced = run.run(args.seconds / 2, traced=True)
            report = overhead(bench, plain, traced)
        else:
            plain = run.run(args.seconds, traced=False)
            report = bench.end_to_end(plain)
    except fleet.BenchError as exc:
        print(f"FAILED: {exc}", flush=True)
        result = {"correct": False, "attempted": max(1, run.attempted), "failed": run.failed, "metrics": {}}
        print(json.dumps(result))
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if not os.listdir(os.path.dirname(rundir)):
            os.rmdir(os.path.dirname(rundir))
    print(f"workload {workload.name}, seed {args.seed}, topology {plain['topology']}")
    if plain["early_sigterm"] != 0:
        print(f"KNOWN DEFECT: a SIGTERM as soon as the ready file appears ends serve with status {plain['early_sigterm']}, not 0")
    show(report)
    health = bench.generator_health(plain)
    print("generator health (untraced pass):")
    show(health)
    if health["gen.late_p99_ms"][0] > bench.LATE_LIMIT_MS:
        print(f"WARNING: the generator fell behind its schedule (late p99 > {bench.LATE_LIMIT_MS} ms)")
    if not args.trace:
        print("tail latency (reported, not gated):")
        show(bench.tails(plain))
    for error in run.errors[:5]:
        print(f"failed op: {error}")
    print(f"ops attempted {run.attempted}, failed {run.failed}, ops_failed_ratio {run.failed / max(1, run.attempted):.6f}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _n) in report.items()}
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def overhead(bench, plain, traced):
    """Per-layer metrics; prints the traced pass against the untraced one."""
    before, after = bench.end_to_end(plain), bench.end_to_end(traced)
    print("tracing overhead (untraced -> traced):")
    for name, (value, unit, _n) in before.items():
        print(f"  {name:<22} {value:>12.4f} -> {after[name][0]:>12.4f} {unit}")
    report = bench.per_layer(traced)
    report.update(bench.tails(plain))
    cpu = after["server_cpu_us_per_op"]
    report["trace.cpu_overhead"] = (cpu[0] / before["server_cpu_us_per_op"][0], "ratio", cpu[2])
    share = report["trace.span_cpu_share"][0]
    print(f"traced server spans cover {share:.1%} of server_cpu_us_per_op ({cpu[0]:.2f} us traced)")
    return report


def show(report) -> None:
    width = max(len(name) for name in report)
    for name, (value, unit, samples) in report.items():
        print(f"  {name:<{width}}  {value:>14.4f} {unit:<6} n={samples}")


if __name__ == "__main__":
    sys.exit(main())
