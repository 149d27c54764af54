"""End-to-end benchmark of the ``repro`` decomposition/mapping program.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload table1-dc --seed 1 --seconds 10 \\
        --trace 0

Runs one workload (``cli-oneshot``, ``table1-dc``, ``batch-small`` or
``serve-open``; see README.md), checks every result with an independent
oracle, prints a report and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones of a second,
traced pass over the same inputs.  The exit code is 0 only when every
oracle check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

import harness
import layers
import stats as st
import spans as tr
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics and their units, in BENCHMARK.json order.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_jobs_per_s": "1/s",
    "map_geomean_s": "s",
    "map_total_s": "s",
    "luts": "count",
    "clbs": "count",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "undegraded_ratio": "ratio",
}

#: Printed in the report but not gated: on ``table1-dc`` the jobs are
#: mappings of distinct circuits that take from 0.01 s to over 10 s, so
#: the median and the tail are order statistics at gaps between circuits
#: and move with which samples cross a gap (see README.md).
REPORTED_UNITS = {"job_p50_s": "s", "job_tail_s": "s"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def report(args, outcome: harness.Outcome, e2e: Dict[str, float],
           per_layer: Dict[str, float]) -> List[str]:
    jobs = outcome.jobs
    latencies = [j.latency_s for j in jobs]
    _, pct, n = st.tail(latencies)
    failed = [j for j in jobs if j.status == "failed" or j.oracle_bad]
    degraded = [j for j in jobs if j.status == "degraded"]
    lines = [f"e2ebench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "end-to-end metrics (tracing off):"]
    for name, value in e2e.items():
        note = ""
        if name == "setup_s":
            note = f"median of {workloads.SETUP_REPEATS} set-ups"
        elif name == "job_tail_s":
            note = f"p{pct:.1f} of {n} samples (not gated)"
        elif name == "job_p50_s":
            note = f"{n} samples (not gated)"
        unit = E2E_UNITS.get(name) or REPORTED_UNITS[name]
        lines.append(f"  {name:<24s} {value:14.6f} {unit:<6s} {note}")
    lines.append(f"  {'fail_ratio':<24s} {len(failed) / len(jobs):14.6f} "
                 f"ratio  {len(failed)}/{len(jobs)} (1 - ok_ratio)")
    lines.append(f"  {'fallback_ratio':<24s} "
                 f"{len(degraded) / len(jobs):14.6f} ratio  "
                 f"{len(degraded)}/{len(jobs)} (1 - undegraded_ratio)")
    lines.append("per-input rows (quality from the first result; map_s is "
                 "the median over computed jobs):")
    lines.append(f"  {'input':<22s} {'jobs':>4s} {'luts':>6s} {'clbs':>6s} "
                 f"{'map_s':>9s}  status")
    by_input: Dict[str, List[harness.Job]] = {}
    for job in jobs:
        by_input.setdefault(job.input, []).append(job)
    for name, group in sorted(by_input.items(),
                              key=lambda kv: kv[0].lower()):
        first = next((j for j in group if j.luts is not None), group[0])
        maps = sorted(j.map_s for j in group if j.map_s is not None)
        map_s = f"{maps[len(maps) // 2]:9.4f}" if maps else f"{'-':>9s}"
        flags = sorted({j.status for j in group})
        if any(j.oracle_bad for j in group):
            flags.append("ORACLE MISMATCH " + ",".join(
                next(j.oracle_bad for j in group if j.oracle_bad)[:3]))
        lines.append(f"  {name:<22s} {len(group):4d} "
                     f"{first.luts if first.luts is not None else '-':>6} "
                     f"{first.clbs if first.clbs is not None else '-':>6} "
                     f"{map_s}  {' '.join(flags)}")
    for job in failed[:10]:
        lines.append(f"  failure: {job.input}: {job.error or job.oracle_bad}")
    mixed = harness.inconsistent_inputs(jobs)
    if mixed:
        lines.append(f"  repeated results disagree for: {', '.join(mixed)}")
    for key, value in outcome.notes.items():
        if key not in ("records", "metrics"):
            lines.append(f"  {key}: {value}")
    if per_layer:
        lines.append("per-layer metrics (traced pass):")
        for name, value in per_layer.items():
            lines.append(f"  {name:<32s} {value:14.6f} {unit_of(name)}")
    return lines


def span_table(spans: List[Dict]) -> List[str]:
    summary = st.layer_summary(spans, tr.self_times(spans))
    lines = [f"  {'span':<28s} {'calls':>8s} {'total_s':>10s} "
             f"{'self_s':>10s}"]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<28s} {row['calls']:8d} "
                     f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"e2ebench: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    ctx = harness.Context(ROOT, args.seed, args.seconds, bool(args.trace))
    try:
        outcome, traced = workloads.WORKLOADS[args.workload](ctx)
        per_layer: Dict[str, float] = {}
        if traced is not None:
            per_layer = layers.compute(traced, workloads.import_time_s(ctx))
    finally:
        ctx.close()

    e2e = harness.e2e_metrics(outcome)
    lines = report(args, outcome, e2e, per_layer)
    stem = os.path.join(ctx.out, f"{args.workload}-seed{args.seed}"
                        f"{'-trace' if args.trace else ''}")
    if traced is not None:
        spans_path = stem + "-spans.jsonl"
        if os.path.exists(spans_path):
            os.unlink(spans_path)
        tr.write_spans(spans_path, traced["spans"])
        lines.append("span summary (traced pass):")
        lines.extend(span_table(traced["spans"]))
        if traced.get("teardown_stderr"):
            lines.append("traced daemon teardown stderr:")
            lines.extend("  " + l for l in
                         traced["teardown_stderr"].splitlines())
    with open(stem + ".txt", "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\n".join(lines))

    bad_oracle = any(j.oracle_bad for j in outcome.jobs) or bool(
        traced and traced["failed"])
    failed = sum(1 for j in outcome.jobs
                 if j.status == "failed" or j.oracle_bad)
    if args.trace:
        names = layers.UNIVERSAL
        metrics = {name: {"value": per_layer[name], "unit": unit_of(name)}
                   for name in names}
    else:
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]}
                   for name in E2E_UNITS}
    print(json.dumps({"correct": not bad_oracle,
                      "attempted": len(outcome.jobs),
                      "failed": failed, "metrics": metrics}))
    return 0 if not bad_oracle else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
