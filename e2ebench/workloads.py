"""The four workloads: real jobs through the program's own entry points.

Each workload function takes a :class:`harness.Context`, runs its set-up
(repeated, median reported), its timed window with tracing off, and the
oracle over every result outside the window.  With ``ctx.trace`` it then
repeats the work with spans recorded and returns the span list beside
the untraced outcome.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import gen
import oracle
import spans as tr
from harness import (Child, Context, Job, Outcome, check_jobs, kill_group,
                     now, run_child, self_peak_rss_mb, wait_group_gone)

SETUP_REPEATS = 3
JOB_TIMEOUT_S = 120.0
WORKERS = 2

#: table1-dc: timed rounds over the inputs that take under a second or
#: two each (the heavy rows are mapped once), after one untimed mapping
#: of each input family.
LIGHT_ROUNDS = 4
WARM_UP = ("rd53", gen.dc_variant_name(gen.DC_BASES[0], gen.DC_DENSITIES[0]))

#: batch-small: 60 distinct jobs, 100 in the manifest (40% repeats).
BATCH_CATALOGUE = list(gen.SMALL_REGISTRY) + gen.synth_catalogue(46)
BATCH_JOBS = 100

#: serve-open: Poisson arrivals on a ``--workers 2`` daemon (see
#: README.md for the rate); 65% of the requests are distinct, the rest
#: Zipf repeats.  f51m and count are left out so that no single request
#: holds a worker for most of a second.
SERVE_RATE = 8.0
SERVE_DISTINCT_SHARE = 0.65
SERVE_CATALOGUE = [name for name in gen.SMALL_REGISTRY
                   if name not in ("f51m", "count")] + gen.synth_catalogue(120)
#: Disjoint from the timed mix; sent all at once, so that both workers
#: start and run through the engine's lazily initialised paths.
SERVE_WARMUP = gen.synth_catalogue(12, tag="w") + ["xor5", "majority",
                                                   "sym10", "adder4"]
FRAME_LIMIT = 1 << 24

_SUMMARY = re.compile(r"(\d+) LUTs, (\d+) CLBs")


def _import_program(ctx: Context) -> None:
    """Make the checkout's ``repro`` importable in this process, with the
    run's private directories as its defaults."""
    if ctx.src not in sys.path:
        sys.path.insert(0, ctx.src)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["HOME"] = os.path.join(ctx.work, "home")


def wire_reference(source_entry: str) -> oracle.WireReference:
    from repro.runtime.jobspec import build_function, parse_manifest_entry
    func = build_function(parse_manifest_entry(source_entry)["source"])
    return oracle.WireReference(func.to_wire())


def import_time_s(ctx: Context) -> float:
    """``import repro.cli`` in a fresh interpreter (median of three)."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_REPEATS):
        child = run_child([ctx.py, "-c", code], ctx.env(), 60.0, ctx)
        samples.append(float(child.stdout.strip()))
    return statistics.median(samples)


# ---------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------

def _cli_job(ctx: Context, name: str, span_dir: Optional[str]
             ) -> Tuple[Job, Child]:
    blif_path = ctx.path(f"{name}.blif")
    child = run_child(ctx.repro("map", name, "--blif-out", blif_path,
                                span_dir=span_dir),
                      ctx.env(), JOB_TIMEOUT_S, ctx)
    job = Job(name, child.wall_s, child.wall_s)
    match = _SUMMARY.search(child.stdout)
    if child.rc != 0 or child.timed_out or match is None:
        job.status = "failed"
        job.error = (child.stderr.strip().splitlines() or [f"rc {child.rc}"]
                     )[-1]
        return job, child
    job.luts, job.clbs = int(match.group(1)), int(match.group(2))
    with open(blif_path) as handle:
        job.blif = handle.read()
    os.unlink(blif_path)
    return job, child


def _cli_window(ctx: Context, span_dir: Optional[str]
                ) -> Tuple[List[Job], float, float]:
    """Closed loop, one client: whole seeded rounds over the fast set
    until the window has passed."""
    jobs: List[Job] = []
    peak = 0.0
    start = now()
    for order in gen.round_orders(gen.FAST_TABLE1, 1000, ctx.seed):
        for name in order:
            job, child = _cli_job(ctx, name, span_dir)
            jobs.append(job)
            peak = max(peak, child.maxrss_mb)
        if now() - start >= ctx.seconds:
            break
    return jobs, now() - start, peak


def cli_oneshot(ctx: Context) -> Tuple[Outcome, Optional[Dict]]:
    _import_program(ctx)
    from repro.bench.registry import benchmark
    refs = {name: oracle.WireReference(benchmark(name).to_wire())
            for name in gen.FAST_TABLE1}
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(run_child(
            ctx.repro("map", "rd53", "--blif-out", ctx.path("warm.blif")),
            ctx.env(), JOB_TIMEOUT_S, ctx).wall_s)
    jobs, window, peak = _cli_window(ctx, None)
    check_jobs(jobs, refs, ctx.seed)
    outcome = Outcome(jobs, window, statistics.median(setups), peak)
    traced = None
    if ctx.trace:
        span_dir = ctx.fresh("spans")
        tjobs, twindow, _ = _cli_window(ctx, span_dir)
        check_jobs(tjobs, refs, ctx.seed)
        traced = {
            "spans": tr.read_spans(span_dir),
            "overhead_ratio": (statistics.mean(j.latency_s for j in tjobs)
                               / statistics.mean(j.latency_s for j in jobs)),
            "wall_s": twindow, "workers": 1, "jobs": len(tjobs),
            "failed": sum(1 for j in tjobs if j.status == "failed"
                          or j.oracle_bad),
        }
    return outcome, traced


# ---------------------------------------------------------------------
# table1-dc
# ---------------------------------------------------------------------

class _Input:
    def __init__(self, name: str, reference: Any, pla_path: str = "",
                 kwargs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.reference = reference
        self.pla_path = pla_path
        self.kwargs = kwargs or {}


_PROBE = """\
import sys
import repro.core.api
from repro.bench.registry import benchmark
from repro.boolfunc.pla import parse_pla
for name in sys.argv[1].split(","):
    benchmark(name)
for path in sys.argv[2:]:
    with open(path) as handle:
        parse_pla(handle.read())
"""


def _table1_inputs(ctx: Context) -> List[_Input]:
    from repro.bench.registry import benchmark
    inputs = []
    for name in gen.TABLE1_ROWS:
        kwargs = {"node_budget": gen.C499_NODE_BUDGET} \
            if name == "C499" else {}
        inputs.append(_Input(
            name, oracle.WireReference(benchmark(name).to_wire()),
            kwargs=kwargs))
    for base in gen.DC_BASES:
        base_ref = oracle.WireReference(benchmark(base).to_wire())
        for density in gen.DC_DENSITIES:
            text = gen.dc_plane_pla(
                base_ref, density,
                gen.rng_for(gen.CATALOGUE_SEED, "dc", base, density))
            name = gen.dc_variant_name(base, density)
            path = ctx.path(f"{name}.pla")
            with open(path, "w") as handle:
                handle.write(text)
            inputs.append(_Input(name, oracle.PlaReference(text), path))
    return inputs


def _map_inputs(ctx: Context, inputs: List[_Input],
                recorder: Optional[tr.Recorder]) -> List[Job]:
    """Map each input once, in order, in this (already imported)
    process.  A fresh memo directory per call keeps calls independent;
    a collection before each mapping keeps one input's garbage out of
    the next one's time."""
    os.environ["REPRO_SUBMEMO_DIR"] = ctx.fresh("submemo")
    from repro.bench import registry
    from repro.boolfunc import pla
    from repro.core import api
    jobs = []
    for inp in inputs:
        if recorder is not None:
            recorder.job = inp.name
        if inp.pla_path:
            with open(inp.pla_path) as handle:
                func = pla.parse_pla(handle.read())
        else:
            func = registry.benchmark(inp.name)
        gc.collect()
        t0 = now()
        result = api.map_to_xc3000(func, **inp.kwargs)
        map_s = now() - t0
        stats = result.stats
        degraded = stats.budget_exhausted or bool(stats.quarantined_outputs)
        jobs.append(Job(inp.name, map_s, map_s,
                        "degraded" if degraded else "ok",
                        result.lut_count, result.clb_count,
                        result.network.to_blif()))
    return jobs


def _table1_plan(inputs: List[_Input], seed: int, light_rounds: int
                 ) -> List[List[_Input]]:
    """Seeded rounds: ``light_rounds`` of the light inputs, then the
    heavy rows once."""
    light = [i for i in inputs if i.name not in gen.TABLE1_HEAVY]
    heavy = [i for i in inputs if i.name in gen.TABLE1_HEAVY]
    return (gen.round_orders(light, light_rounds, seed)
            + gen.round_orders(heavy, 1, seed))


def table1_dc(ctx: Context) -> Tuple[Outcome, Optional[Dict]]:
    _import_program(ctx)
    inputs = _table1_inputs(ctx)
    refs = {inp.name: inp.reference for inp in inputs}
    registry_names = ",".join(i.name for i in inputs if not i.pla_path)
    pla_paths = [i.pla_path for i in inputs if i.pla_path]
    setups = []
    for _ in range(SETUP_REPEATS):
        child = run_child([ctx.py, "-c", _PROBE, registry_names, *pla_paths],
                          ctx.env(), JOB_TIMEOUT_S, ctx)
        if child.rc != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr}")
        setups.append(child.wall_s)
    import repro.core.api  # noqa: F401  (the pre-imported process)
    by_name = {inp.name: inp for inp in inputs}
    _map_inputs(ctx, [by_name.get(name) or _Input(name, None)
                      for name in WARM_UP], None)
    # A traced run maps the heavy rows twice (untraced, then traced), so
    # its untraced pass makes one light round to stay within the time a
    # run may take; the end-to-end metrics come from untraced runs.
    light_rounds = 1 if ctx.trace else LIGHT_ROUNDS
    timed = _table1_plan(inputs, ctx.seed, light_rounds)
    jobs: List[Job] = []
    start = now()
    for batch in timed:
        jobs.extend(_map_inputs(ctx, batch, None))
    window = now() - start
    peak = self_peak_rss_mb()
    check_jobs(jobs, refs, ctx.seed)
    outcome = Outcome(jobs, window, statistics.median(setups), peak,
                      notes={"C499 node_budget": gen.C499_NODE_BUDGET,
                             "light rounds": light_rounds,
                             "left out": "rot (~56 s alone: run length "
                                         "only)"})
    traced = None
    if ctx.trace:
        # One traced mapping of every input, against the untraced
        # per-input medians.
        recorder = tr.Recorder()
        recorder.install()
        tstart = now()
        try:
            tjobs = _map_inputs(ctx, [i for batch in (timed[0], timed[-1])
                                      for i in batch], recorder)
        finally:
            recorder.uninstall()
        twindow = now() - tstart
        spans = recorder.take()
        check_jobs(tjobs, refs, ctx.seed)
        medians = {name: statistics.median(j.map_s for j in jobs
                                           if j.input == name)
                   for name in refs}
        traced = {"spans": spans,
                  "overhead_ratio": (sum(j.map_s for j in tjobs)
                                     / sum(medians.values())),
                  "wall_s": twindow, "workers": 1, "jobs": len(tjobs),
                  "failed": sum(1 for j in tjobs if j.oracle_bad)}
    return outcome, traced


# ---------------------------------------------------------------------
# batch-small
# ---------------------------------------------------------------------

def _batch_invocation(ctx: Context, manifest: str, span_dir: Optional[str]
                      ) -> Tuple[List[Job], Child, List[Dict]]:
    cache_dir = ctx.fresh("cache")
    rows_path = ctx.path("rows.jsonl")
    child = run_child(
        ctx.repro("batch", "--manifest", manifest, "--jobs", str(WORKERS),
                  "--include-blif", "--cache-dir", cache_dir,
                  "--out", rows_path, span_dir=span_dir),
        ctx.env(REPRO_CACHE_DIR=cache_dir,
                REPRO_SUBMEMO_DIR=ctx.fresh("submemo")),
        JOB_TIMEOUT_S, ctx)
    rows: List[Dict] = []
    if os.path.exists(rows_path):
        with open(rows_path) as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
    jobs = []
    for row in rows:
        record = row.get("result") or {}
        jobs.append(Job(row["job_id"], row["exec_s"],
                        None if row["cache_hit"] else row["exec_s"],
                        row["status"], record.get("lut_count"),
                        record.get("clb_count"), record.get("blif"),
                        row.get("error") or ""))
    if child.rc != 0 or child.timed_out or not rows:
        # A batch that dies takes every job it did not report with it.
        missing = max(0, _manifest_length(manifest) - len(rows))
        jobs.extend(Job("?", child.wall_s, None, "failed",
                        error=f"batch rc {child.rc}")
                    for _ in range(missing))
    return jobs, child, rows


def _manifest_length(path: str) -> int:
    with open(path) as handle:
        return sum(1 for line in handle if line.strip())


def batch_small(ctx: Context) -> Tuple[Outcome, Optional[Dict]]:
    _import_program(ctx)
    refs = {entry: wire_reference(entry) for entry in BATCH_CATALOGUE}
    mix = gen.job_mix(BATCH_CATALOGUE, BATCH_JOBS, ctx.seed, "batch")
    manifest = ctx.path("manifest.txt")
    with open(manifest, "w") as handle:
        handle.write("\n".join(mix) + "\n")
    one_job = ctx.path("one.txt")
    with open(one_job, "w") as handle:
        handle.write("rd53\n")
    setups = [_batch_invocation(ctx, one_job, None)[1].wall_s
              for _ in range(SETUP_REPEATS)]
    jobs: List[Job] = []
    rates = []
    peak = 0.0
    start = now()
    while True:
        inv_jobs, child, _ = _batch_invocation(ctx, manifest, None)
        jobs.extend(inv_jobs)
        rates.append(len(inv_jobs) / child.wall_s)
        peak = max(peak, child.maxrss_mb)
        if now() - start >= ctx.seconds:
            break
    window = now() - start
    check_jobs(jobs, refs, ctx.seed)
    outcome = Outcome(jobs, window, statistics.median(setups), peak,
                      throughput=statistics.median(rates),
                      notes={"invocations": len(rates),
                             "repeat_share": round(gen.repeat_share(mix), 3)})
    traced = None
    if ctx.trace:
        span_dir = ctx.fresh("spans")
        tjobs, tchild, rows = _batch_invocation(ctx, manifest, span_dir)
        check_jobs(tjobs, refs, ctx.seed)
        untraced_wall = statistics.median(len(mix) / r for r in rates)
        traced = {"spans": tr.read_spans(span_dir),
                  "overhead_ratio": tchild.wall_s / untraced_wall,
                  "wall_s": tchild.wall_s, "workers": WORKERS,
                  "jobs": len(tjobs), "rows": rows,
                  "failed": sum(1 for j in tjobs if j.status == "failed"
                                or j.oracle_bad)}
    return outcome, traced


# ---------------------------------------------------------------------
# serve-open
# ---------------------------------------------------------------------

class Daemon:
    """A ``repro serve`` process on a unix socket plus an HTTP port for
    ``GET /metrics``, with its own cache and memo directories."""

    def __init__(self, ctx: Context, span_dir: Optional[str]) -> None:
        self.ctx = ctx
        self.socket = os.path.join(ctx.fresh("sock"), "s")
        cache_dir = ctx.fresh("cache")
        self.err_path = ctx.path("daemon.err")
        self._err = open(self.err_path, "w")
        self.started = now()
        self.proc = subprocess.Popen(
            ctx.repro("serve", "--socket", self.socket, "--port", "0",
                      "--workers", str(WORKERS), "--cache-dir", cache_dir,
                      span_dir=span_dir),
            env=ctx.env(REPRO_CACHE_DIR=cache_dir,
                        REPRO_SUBMEMO_DIR=ctx.fresh("submemo")),
            cwd=ctx.root, stdout=subprocess.PIPE, stderr=self._err,
            start_new_session=True)
        self.port = None
        self.maxrss_mb = 0.0
        self.rc: Optional[int] = None
        self.stderr = ""
        try:
            self._await_ready(60.0)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, timeout: float) -> None:
        deadline = now() + timeout
        fd = self.proc.stdout.fileno()
        seen = b""
        while now() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            seen += chunk
            match = re.search(rb"serving HTTP on [^:]+:(\d+)", seen)
            if match and b"worker(s)" in seen:
                self.port = int(match.group(1))
                return
        raise RuntimeError("serve daemon did not become ready: "
                           + seen.decode(errors="replace"))

    def metrics(self) -> Dict[str, Any]:
        url = f"http://127.0.0.1:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then make sure nothing of its
        process group is left."""
        if self.rc is not None:
            return
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        timer = threading.Timer(30.0, kill_group, (self.proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.rc = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        kill_group(self.proc.pid)
        wait_group_gone(self.proc.pid)
        self.proc.stdout.close()
        self._err.close()
        with open(self.err_path) as handle:
            self.stderr = handle.read()


async def _request(socket_path: str, entry: str, ident: str,
                   due: float) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    await asyncio.sleep(max(0.0, due - loop.time()))
    sent = loop.time()
    record: Dict[str, Any] = {"entry": entry, "due": due, "sent": sent,
                              "frames": {}, "final": None}
    try:
        reader, writer = await asyncio.open_unix_connection(
            socket_path, limit=FRAME_LIMIT)
        try:
            request = {"source": entry, "id": ident, "stream": True,
                       "include_blif": True}
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    break
                frame = json.loads(line)
                event = frame.get("event")
                record["frames"].setdefault(event, loop.time())
                if event in ("result", "error"):
                    record["final"] = frame
                    break
        finally:
            writer.close()
            await writer.wait_closed()
    except (OSError, ValueError) as exc:
        record["final"] = {"event": "error", "error": repr(exc)}
    record["done"] = loop.time()
    return record


async def _open_loop(socket_path: str, entries: List[str],
                     due: List[float]) -> List[Dict[str, Any]]:
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.05
    tasks = [asyncio.create_task(_request(socket_path, entry, str(k),
                                          t0 + offset))
             for k, (entry, offset) in enumerate(zip(entries, due))]
    records = list(await asyncio.gather(*tasks))
    for record in records:
        record["start"] = t0
    return records


def _window_s(records: List[Dict[str, Any]], seconds: int) -> float:
    """The scheduled window, or longer when the last reply came late."""
    return max(float(seconds),
               max(r["done"] for r in records) - records[0]["start"])


def _serve_jobs(records: List[Dict[str, Any]]) -> List[Job]:
    jobs = []
    for rec in records:
        final = rec["final"] or {}
        latency = rec["done"] - rec["due"]
        frames = rec["frames"]
        computed = "dispatch" in frames and "cache" not in frames \
            and "coalesced" not in frames
        job = Job(rec["entry"], latency,
                  rec["done"] - frames["dispatch"] if computed else None)
        if final.get("event") != "result" or final.get("status") == "failed":
            job.status = "failed"
            job.error = str(final.get("error") or final.get("event"))
        else:
            result = final.get("result") or {}
            job.status = final.get("status", "ok")
            job.luts = result.get("lut_count")
            job.clbs = result.get("clb_count")
            job.blif = result.get("blif")
        jobs.append(job)
    return jobs


def _serve_session(ctx: Context, entries: List[str], due: List[float],
                   span_dir: Optional[str]
                   ) -> Tuple[List[float], List[Dict], Daemon, Dict]:
    """Set up a daemon SETUP_REPEATS times (start, ready, warm-up from a
    disjoint input set); run the open loop against the last one."""
    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        last = attempt == SETUP_REPEATS - 1
        daemon = Daemon(ctx, span_dir if last else None)
        try:
            asyncio.run(_open_loop(daemon.socket, SERVE_WARMUP,
                                   [0.0] * len(SERVE_WARMUP)))
            setups.append(now() - daemon.started)
            if last:
                records = asyncio.run(_open_loop(daemon.socket, entries,
                                                 due))
                metrics = daemon.metrics()
        finally:
            daemon.stop()
    return setups, records, daemon, metrics


def serve_plan(seed: int, seconds: int) -> Tuple[List[str], List[float]]:
    count = max(1, round(SERVE_RATE * seconds))
    distinct = max(1, min(len(SERVE_CATALOGUE),
                          round(SERVE_DISTINCT_SHARE * count)))
    entries = gen.job_mix(SERVE_CATALOGUE[:distinct], count, seed, "serve")
    return entries, gen.poisson_arrivals(count, seconds, seed, "serve")


def serve_open(ctx: Context) -> Tuple[Outcome, Optional[Dict]]:
    _import_program(ctx)
    entries, due = serve_plan(ctx.seed, ctx.seconds)
    refs = {entry: wire_reference(entry) for entry in set(entries)}
    setups, records, daemon, metrics = _serve_session(ctx, entries, due,
                                                      None)
    jobs = _serve_jobs(records)
    window = _window_s(records, ctx.seconds)
    check_jobs(jobs, refs, ctx.seed)
    lags = [r["sent"] - r["due"] for r in records]
    notes = {"rate_per_s": SERVE_RATE, "requests": len(entries),
             "repeat_share": round(gen.repeat_share(entries), 3),
             "gen_lag_max_s": max(lags), "daemon_rc": daemon.rc,
             "teardown_stderr": daemon.stderr.strip(),
             "records": records, "metrics": metrics}
    outcome = Outcome(jobs, window, statistics.median(setups),
                      daemon.maxrss_mb, notes=notes)
    traced = None
    if ctx.trace:
        span_dir = ctx.fresh("spans")
        _, trecords, tdaemon, tmetrics = _serve_session(ctx, entries, due,
                                                        span_dir)
        tjobs = _serve_jobs(trecords)
        check_jobs(tjobs, refs, ctx.seed)
        traced = {
            "spans": tr.read_spans(span_dir),
            "overhead_ratio": (statistics.mean(j.latency_s for j in tjobs)
                               / statistics.mean(j.latency_s for j in jobs)),
            "wall_s": _window_s(trecords, ctx.seconds),
            "workers": WORKERS, "jobs": len(tjobs), "records": trecords,
            "metrics": tmetrics,
            "teardown_stderr": tdaemon.stderr.strip(),
            "failed": sum(1 for j in tjobs if j.status == "failed"
                          or j.oracle_bad)}
    return outcome, traced


WORKLOADS = {
    "cli-oneshot": cli_oneshot,
    "table1-dc": table1_dc,
    "batch-small": batch_small,
    "serve-open": serve_open,
}
