"""Per-layer metrics of a traced run.

Times are self times (a span minus its wrapped children).  Counts come
from what the program already returns: the ``FpgaMappingResult.stats``
of each mapping (read by the ``map`` span), batch rows, serve stream
frames and ``GET /metrics``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

import stats as st
import spans as tr

DECOMP_CALLS = ("dsd", "symmetry_groups", "dc_step1", "dc_step2",
                "dc_step3", "rank_bound_sets", "classes_for",
                "common_alphas", "compose", "submemo_key")
BUILD_SPANS = ("build.benchmark", "build.parse_pla", "build.build_function")

#: Measured on every workload, so they go in BENCHMARK.json.
UNIVERSAL = (
    ["startup.import_s", "build.self_s", "build.calls", "decomp.run_s",
     "decomp.self_s", "decomp.coverage_ratio"]
    + [f"decomp.{name}.{kind}" for name in DECOMP_CALLS
       for kind in ("self_s", "calls")]
    + ["decomp.steps", "decomp.alpha_share_ratio", "kernel.hits",
       "kernel.hit_ratio", "bdd.ite_calls", "bdd.computed_hit_ratio",
       "bdd.peak_nodes", "mapping.clb_pack.self_s", "mapping.to_blif.self_s",
       "runtime.overhead_per_job_s", "bench.trace_overhead_ratio"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(traced: Dict[str, Any], import_s: float) -> Dict[str, float]:
    """Every per-layer metric the traced run can give for this workload:
    the :data:`UNIVERSAL` ones plus those only some workloads have."""
    spans: List[Dict[str, Any]] = traced["spans"]
    summary = st.layer_summary(spans, tr.self_times(spans))

    def total(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    m: Dict[str, float] = {"startup.import_s": import_s}
    m["build.self_s"] = sum(total(n, "self_s") for n in BUILD_SPANS)
    m["build.calls"] = sum(total(n, "calls") for n in BUILD_SPANS)
    run_s = total("decomp.run", "total_s")
    m["decomp.run_s"] = run_s
    m["decomp.self_s"] = total("decomp.run", "self_s")
    m["decomp.coverage_ratio"] = _ratio(run_s - m["decomp.self_s"], run_s)
    for name in DECOMP_CALLS:
        m[f"decomp.{name}.self_s"] = total(f"decomp.{name}", "self_s")
        m[f"decomp.{name}.calls"] = total(f"decomp.{name}", "calls")

    attrs = [s["attrs"] for s in spans if s["name"] == "map"]

    def add(key: str) -> float:
        return float(sum(a.get(key, 0) for a in attrs))

    m["decomp.steps"] = add("steps")
    m["decomp.shannon_steps"] = add("shannon_steps")
    m["decomp.alpha_share_ratio"] = _ratio(
        add("alphas_shared"), add("alphas_created") + add("alphas_shared"))
    m["kernel.hits"] = add("kernel_hits")
    m["kernel.hit_ratio"] = _ratio(
        add("kernel_hits"), add("kernel_hits") + add("kernel_misses"))
    m["submemo.hit_ratio"] = _ratio(
        add("submemo_hits"), add("submemo_hits") + add("submemo_misses"))
    m["bdd.ite_calls"] = add("ite_calls")
    m["bdd.computed_hit_ratio"] = _ratio(
        add("computed_hits"), add("computed_hits") + add("computed_misses"))
    m["bdd.peak_nodes"] = float(max((a.get("peak_nodes", 0) for a in attrs),
                                    default=0))
    m["mapping.clb_pack.self_s"] = total("mapping.clb_pack", "self_s")
    m["mapping.to_blif.self_s"] = total("mapping.to_blif", "self_s")
    m["verify.check.self_s"] = total("verify.check", "self_s")
    m["runtime.cache.get_s"] = total("runtime.cache.get", "total_s")
    m["runtime.cache.put_s"] = total("runtime.cache.put", "total_s")

    executed = [s for s in spans if s["name"] == "runtime.execute"] \
        or [s for s in spans if s["name"] == "map"]
    busy = sum(s["end"] - s["start"] for s in executed)
    m["runtime.overhead_per_job_s"] = (
        (traced["wall_s"] * traced["workers"] - busy) / traced["jobs"])
    m["bench.trace_overhead_ratio"] = traced["overhead_ratio"]

    rows = traced.get("rows")
    if rows:
        m["runtime.queue_wait_s"] = statistics.median(
            r["queue_wait_s"] for r in rows)
        m["runtime.exec_s"] = sum(r["exec_s"] for r in rows)
        m["runtime.retries"] = float(sum(r["retries"] for r in rows))
        m["runtime.cache.hit_ratio"] = _ratio(
            sum(1 for r in rows if r["cache_hit"]), len(rows))
    records = traced.get("records")
    if records:
        queue = [r["frames"]["dispatch"] - r["frames"]["queued"]
                 for r in records
                 if "dispatch" in r["frames"] and "queued" in r["frames"]]
        execs = [r["done"] - r["frames"]["dispatch"] for r in records
                 if "dispatch" in r["frames"]]
        if queue:
            m["serve.queue_s"] = statistics.median(queue)
        if execs:
            m["serve.exec_s"] = statistics.median(execs)
        pool = (traced.get("metrics") or {}).get("pool", {})
        requests = len(records)
        m["serve.cache_hit_ratio"] = _ratio(
            sum(1 for r in records if "cache" in r["frames"]), requests)
        m["serve.coalesced_ratio"] = _ratio(
            sum(1 for r in records if "coalesced" in r["frames"]), requests)
        m["serve.warm_hit_ratio"] = _ratio(pool.get("warm_hits", 0),
                                           pool.get("dispatched", 0))
        lags = sorted(r["sent"] - r["due"] for r in records)
        m["bench.gen_lag_p99_s"] = lags[min(len(lags) - 1,
                                            int(0.99 * len(lags)))]
    return m
