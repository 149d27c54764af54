"""Process, environment and job bookkeeping shared by the workloads."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import oracle
import stats as st

now = time.perf_counter


@dataclass
class Job:
    """One job as its workload observed it."""

    input: str
    #: From submission (or, in an open loop, from the due time) to result.
    latency_s: float
    #: Time spent producing the mapping; None when the result came from a
    #: cache or rode another request.
    map_s: Optional[float]
    status: str = "ok"              # ok | degraded | failed
    luts: Optional[int] = None
    clbs: Optional[int] = None
    blif: Optional[str] = None
    error: str = ""
    oracle_bad: List[str] = field(default_factory=list)


@dataclass
class Outcome:
    jobs: List[Job]
    #: Wall time the throughput divides by.
    window_s: float
    setup_s: float
    peak_rss_mb: float
    #: Set when the workload measures throughput per command instead.
    throughput: Optional[float] = None
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Child:
    rc: int
    wall_s: float
    maxrss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


class Context:
    """One benchmark run: paths, seed, and a private work directory that
    holds every cache, memo and scratch file the run's processes touch.
    The directory is removed when the run ends."""

    def __init__(self, root: str, seed: int, seconds: int, trace: bool
                 ) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.bench = os.path.join(root, "e2ebench")
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.py = sys.executable
        base = os.path.join(self.bench, ".work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=base)
        self.out = os.path.join(self.bench, "out")
        os.makedirs(self.out, exist_ok=True)
        self._count = 0

    def fresh(self, name: str) -> str:
        """A new, empty directory under the work directory."""
        self._count += 1
        path = os.path.join(self.work, f"{name}-{self._count}")
        os.makedirs(path)
        return path

    def path(self, name: str) -> str:
        self._count += 1
        return os.path.join(self.work, f"{self._count}-{name}")

    def env(self, **extra: str) -> Dict[str, str]:
        """Child environment: no inherited ``REPRO_*`` knobs, the checkout's
        sources on the path, and a home inside the work directory so no
        default cache lands outside it."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = self.src
        env["HOME"] = os.path.join(self.work, "home")
        env.update(extra)
        return env

    def repro(self, *args: str, span_dir: Optional[str] = None) -> List[str]:
        """argv of one ``repro`` command, through the trace launcher when
        ``span_dir`` is given."""
        if span_dir is None:
            return [self.py, "-m", "repro", *args]
        return [self.py, os.path.join(self.bench, "spans.py"), span_dir,
                *args]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def run_child(argv: List[str], env: Dict[str, str], timeout: float,
              ctx: Context) -> Child:
    """Run a process to completion; its wall time and peak RSS (its own
    and that of every descendant it reaped)."""
    out_path, err_path = ctx.path("stdout"), ctx.path("stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = now()
        proc = subprocess.Popen(argv, env=env, cwd=ctx.root, stdout=out,
                                stderr=err, start_new_session=True)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)
    wait_group_gone(proc.pid)
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    os.unlink(out_path)
    os.unlink(err_path)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 timed_out.is_set(), stdout, stderr)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def wait_group_gone(pgid: int, timeout: float = 10.0) -> bool:
    """Wait until no process of the group is left (orphaned grandchildren
    are reaped by init, not by us, so poll)."""
    deadline = now() + timeout
    while now() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return True
        time.sleep(0.01)
    return False


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_jobs(jobs: List[Job], refs: Dict[str, Any], seed: int) -> None:
    """Run the independent oracle over every result that carries a
    network."""
    for k, job in enumerate(jobs):
        if job.status == "failed":
            continue
        if job.blif is None:
            job.oracle_bad = ["no network returned"]
            continue
        job.oracle_bad = oracle.check(refs[job.input], job.blif,
                                      seed=f"{seed}:{job.input}:{k}")
        job.blif = None


def e2e_metrics(out: Outcome) -> Dict[str, float]:
    """Every end-to-end metric, computed the same way on every workload."""
    jobs = out.jobs
    latencies = [j.latency_s for j in jobs]
    per_input: Dict[str, List[float]] = {}
    quality: Dict[str, tuple] = {}
    for job in jobs:
        if job.map_s is not None and job.status != "failed":
            per_input.setdefault(job.input, []).append(job.map_s)
        if job.luts is not None and job.input not in quality:
            quality[job.input] = (job.luts, job.clbs)
    map_times = [statistics.median(v) for v in per_input.values()]
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j.status == "failed" or j.oracle_bad)
    degraded = sum(1 for j in jobs if j.status == "degraded")
    tail_value, _, _ = st.tail(latencies)
    throughput = out.throughput if out.throughput is not None \
        else attempted / out.window_s
    return {
        "setup_s": out.setup_s,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "throughput_jobs_per_s": throughput,
        "map_geomean_s": st.geomean(map_times),
        "map_total_s": sum(map_times),
        "luts": float(sum(q[0] for q in quality.values())),
        "clbs": float(sum(q[1] for q in quality.values())),
        "peak_rss_mb": out.peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
        "undegraded_ratio": (attempted - degraded) / attempted,
    }


def inconsistent_inputs(jobs: List[Job]) -> List[str]:
    """Inputs whose repeated results disagree on LUT or CLB count."""
    seen: Dict[str, tuple] = {}
    bad = set()
    for job in jobs:
        if job.luts is None:
            continue
        key = (job.luts, job.clbs)
        if seen.setdefault(job.input, key) != key:
            bad.add(job.input)
    return sorted(bad)
