"""Ordered, journaled batch front over the persistent worker pool.

:class:`BatchScheduler` runs decomposition jobs (see
:mod:`repro.runtime.jobspec`) on a :class:`~repro.runtime.pool.WorkerPool`
of long-lived worker processes.  The pool contains failures — a worker
that crashes, times out or goes heartbeat-silent is killed and
respawned, and one whose job failed retires itself — and the shared
ladder (:func:`repro.runtime.pool.settle`) decides what a failed attempt
means: a crash is the transient class (OOM kills, signals) and is
retried with a seeded, jittered linear backoff, then degraded; a
timeout, a hang, a worker exception or a verification mismatch is
deterministic and degrades at once.  *Degrading* re-runs the job in the
parent through the trivial Shannon/MUX mapping (a zero time budget),
which is bounded by the BDD size and verified; when even that fails
(e.g. an unreadable PLA file) the job is ``failed``.  Hang detection
rests on heartbeats: workers beat while the engine's liveness pulse
advances, so a stuck worker goes silent while a slow one keeps beating.

Results come back in submission order regardless of completion order,
and each carries its own observability record for the batch metrics
document: ``queue_wait_s`` from batch start to the first dispatch to a
worker, ``exec_s`` from the dispatch of the attempt that produced the
outcome to its settling (time queued in the pool never counts), cache
hit, retry count and heartbeat count.

With a :class:`~repro.runtime.cache.ResultCache` attached, the parent
builds each function as it submits, keys it by content
(:meth:`MultiFunction.canonical_key` + flow + engine config + code
version) and skips dispatch entirely on a hit; on a miss the built
function ships to the worker in wire form so it is not rebuilt.  A
repeat of a job already in flight in the same batch waits for that
first occurrence and settles as a cache hit with its record — unless
the first occurrence degrades or fails, in which case the repeat makes
its own attempt.  The first occurrence in submission order always
leads, so rows do not depend on the worker count.

Chaos containment: the parent-side build and the degradation fallback
run under :func:`repro.faults.suppressed`, so injected worker faults
can never take down the scheduler through its own recovery paths;
parent-side *storage* faults (``cache.write``, ``journal.append``) stay
live.  ``run`` shuts its pool down on the way out, killing every live
worker on ``KeyboardInterrupt`` or an error — no orphans.
"""

from __future__ import annotations

import heapq
import queue
import random
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.config import FlowConfig
from repro.runtime import jobspec
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.pool import (
    EventSink,
    ProgressEvent,
    WorkerPool,
    attempt_outcome,
    emit_event,
    resolve_workers,
    settle,
)


@dataclass
class JobResult:
    """Outcome of one batch job, with its observability record."""

    job_id: str
    source: str
    flow: str
    #: "ok" | "degraded" | "failed".
    status: str
    #: The flow's result record (None only when status == "failed").
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cache_hit: bool = False
    degraded: bool = False
    #: Position in the submitted job list (stable across resume merges).
    index: int = -1
    #: Seconds between batch start and first dispatch of this job.
    queue_wait_s: float = 0.0
    #: Wall-clock seconds of the attempt that produced the outcome.
    exec_s: float = 0.0
    #: Crash retries consumed (0 on a clean first attempt).
    retries: int = 0
    #: Heartbeats received from the attempt that produced the outcome.
    beats: int = 0
    #: True when the job was killed for heartbeat silence (not timeout).
    hung: bool = False

    def as_dict(self, include_blif: bool = False) -> Dict[str, Any]:
        """JSON-able row for the batch JSONL output.

        BLIF text is dropped by default to keep rows one-line small;
        the full record stays on :attr:`result`.
        """
        record = self.result
        if record is not None and not include_blif:
            record = {k: v for k, v in record.items() if k != "blif"}
            for driver in ("mulopII", "mulop_dc"):
                if isinstance(record.get(driver), dict):
                    record[driver] = {k: v
                                      for k, v in record[driver].items()
                                      if k != "blif"}
        return {
            "job_id": self.job_id,
            "source": self.source,
            "flow": self.flow,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "index": self.index,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "exec_s": round(self.exec_s, 6),
            "retries": self.retries,
            "beats": self.beats,
            "hung": self.hung,
            "result": record,
            "error": self.error,
        }


def _record_quarantined(record: Any) -> int:
    """Quarantined-output count inside one result record (compare-flow
    nesting included)."""
    if not isinstance(record, dict):
        return 0
    total = 0
    engine = record.get("engine")
    if isinstance(engine, dict):
        names = engine.get("quarantined_outputs")
        if isinstance(names, (list, tuple)):
            total += len(names)
    for driver in ("mulopII", "mulop_dc"):
        total += _record_quarantined(record.get(driver))
    return total


def summarize_rows(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Batch totals over JSONL rows (``JobResult.as_dict`` shape).

    Row-based so resumed batches can summarize journal-replayed rows and
    freshly computed ones uniformly.
    """
    return {
        "jobs": len(rows),
        "ok": sum(r.get("status") == "ok" for r in rows),
        "degraded": sum(r.get("status") == "degraded" for r in rows),
        "failed": sum(r.get("status") == "failed" for r in rows),
        "cache_hits": sum(bool(r.get("cache_hit")) for r in rows),
        "retries": sum(int(r.get("retries") or 0) for r in rows),
        "hung": sum(bool(r.get("hung")) for r in rows),
        "quarantined_outputs": sum(_record_quarantined(r.get("result"))
                                   for r in rows),
        "total_exec_s": round(sum(float(r.get("exec_s") or 0.0)
                                  for r in rows), 6),
    }


def summarize(results: List[JobResult]) -> Dict[str, Any]:
    """Batch totals for the metrics document and the CLI summary line."""
    return summarize_rows([r.as_dict() for r in results])


@dataclass
class _Slot:
    """One job between its cache check and its settled result."""

    index: int
    job: Dict[str, Any]
    #: Parent-side build artefacts (cache mode only).
    func: Any = None
    key: Optional[str] = None
    #: Attempts handed to the pool so far.
    attempt: int = 0
    #: Crash retries consumed.
    retries: int = 0
    #: Seconds from batch start to the first dispatch to a worker.
    first_dispatch: Optional[float] = None
    #: Monotonic time the current attempt reached a worker.
    started_at: float = 0.0
    #: Heartbeats of the current attempt.
    beats: int = 0
    #: Later jobs of the batch with the same cache key, waiting for
    #: this one instead of computing again.
    followers: List["_Slot"] = field(default_factory=list)


class BatchScheduler:
    """Run many jobs on a persistent worker pool with bounded failure
    modes.

    Parameters
    ----------
    workers:
        Concurrent worker processes.  ``None`` and values <= 0 clamp to
        the auto-detected count (CPU count, capped at 8).
    timeout:
        Per-job wall-clock budget in seconds (None = unbounded).
    retries:
        Crash retries per job before degrading.
    cache:
        Optional :class:`ResultCache`; hits skip dispatch entirely, and
        repeats inside one batch wait for their first occurrence.
    degrade:
        When False, timeouts/hangs/crashes mark the job ``failed``
        instead of falling back to the trivial mapping.
    retry_backoff_s:
        Base of the jittered linear crash-retry backoff
        (``base * retries * uniform(0.5, 1.5)``).
    backoff_seed:
        Seed for the backoff jitter stream (deterministic schedules in
        tests).
    heartbeat_s:
        Interval at which workers report liveness (None or 0 disables
        the beat thread entirely).
    hang_grace_s:
        Kill a worker silent for this long and degrade its job without
        retry.  None (default) disables hang detection — only the hard
        wall-clock ``timeout`` applies.  Must comfortably exceed
        ``heartbeat_s`` plus worker startup time.
    pool:
        Run on this :class:`WorkerPool` instead of one of our own; its
        width, heartbeat and hang grace then apply, and :meth:`run`
        leaves it running.  A dist node shares one pool between the
        schedulers of its concurrent jobs this way.
    """

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 cache: Optional[ResultCache] = None,
                 degrade: bool = True,
                 retry_backoff_s: float = 0.25,
                 backoff_seed: int = 0,
                 heartbeat_s: Optional[float] = 1.0,
                 hang_grace_s: Optional[float] = None,
                 mp_context: Optional[str] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        # None / zero / negative all clamp to the auto-detected count
        # (CPU count capped at 8) — see runtime.pool.resolve_workers.
        self.workers, _ = resolve_workers(workers)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.cache = cache
        self.degrade = degrade
        self.retry_backoff_s = retry_backoff_s
        self.heartbeat_s = heartbeat_s
        self.hang_grace_s = hang_grace_s
        self.mp_context = mp_context
        self.pool = pool
        self._rng = random.Random(backoff_seed)
        #: Sub-ISF memo counters summed over workers' payloads by the
        #: pool of the most recent :meth:`run` — over the pool's whole
        #: life when it was passed in (rows never carry them — see
        #: :mod:`repro.decomp.submemo`).
        self.submemo_totals: Dict[str, int] = {}

    # -- public entry ---------------------------------------------------

    def run(self, jobs: List[Dict[str, Any]],
            on_result: Optional[Callable[[JobResult], None]] = None,
            on_dispatch: Optional[Callable[[int, int], None]] = None,
            on_event: Optional[EventSink] = None) -> List[JobResult]:
        """Execute ``jobs``; results are in submission order.

        ``on_dispatch(index, attempt)`` fires just before each attempt
        is handed to the pool (the journal's start record); ``on_result``
        fires as each job settles, out of submission order.
        ``on_event`` receives the full :class:`ProgressEvent` stream
        (``dispatch`` when a worker takes the attempt, ``beat`` with the
        engine phase, ``retry``, ``result``) — the same API the service
        tier streams to clients.  Every callback runs on the calling
        thread.
        """
        started = time.monotonic()
        results: List[Optional[JobResult]] = [None] * len(jobs)
        # No warm-function memo: repeats inside a batch already share one
        # computation through the cache key, so a memoised function is
        # seldom reused, while it keeps the BDD nodes of its last run
        # alive in the worker (peak RSS).
        pool = self.pool or WorkerPool(
            min(self.workers, max(1, len(jobs))),
            heartbeat_s=self.heartbeat_s,
            hang_grace_s=self.hang_grace_s, warm_limit=0,
            mp_context=self.mp_context)
        #: (index, pool event or settled future, monotonic time), put by
        #: the pool's dispatcher thread, handled here.
        inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        #: Submitted jobs not yet settled, by index.
        open_slots: Dict[int, _Slot] = {}
        #: First occurrence in flight per cache key (in-batch dedup).
        leaders: Dict[str, _Slot] = {}
        #: Crash retries in backoff: (not before, index).
        backoff: List[Tuple[float, int]] = []

        def finish(slot: _Slot, res: JobResult) -> None:
            res.index = slot.index
            results[slot.index] = res
            emit_event(on_event, ProgressEvent(
                kind="result", job_id=res.job_id, index=slot.index,
                status=res.status, beats=res.beats, detail=res.error))
            if on_result is not None:
                on_result(res)

        def submit(slot: _Slot) -> None:
            slot.attempt += 1
            slot.started_at = time.monotonic()
            open_slots[slot.index] = slot
            if on_dispatch is not None:
                on_dispatch(slot.index, slot.attempt)
            index = slot.index
            future = pool.submit(
                slot.job, attempt=slot.attempt, timeout=self.timeout,
                on_event=lambda event: inbox.put(
                    (index, event, time.monotonic())))
            future.add_done_callback(lambda done: inbox.put(
                (index, done, time.monotonic())))

        def handle(index: int, report: Any, at: float) -> None:
            slot = open_slots[index]
            if isinstance(report, ProgressEvent):
                if report.kind == "dispatch":
                    # exec_s counts from here, so time spent queued in
                    # the pool is never charged to the job.
                    slot.started_at = at
                    slot.beats = 0
                    if slot.first_dispatch is None:
                        slot.first_dispatch = at - started
                elif report.kind == "beat":
                    slot.beats = report.beats
                report.index = index
                emit_event(on_event, report)
                return
            res = self._settle(slot, report, at, backoff, on_event)
            if res is None:
                return  # crash retry in backoff
            del open_slots[index]
            if leaders.get(slot.key) is slot:
                del leaders[slot.key]
            finish(slot, res)
            for follower in slot.followers:
                if res.status == "ok":
                    finish(follower, self._result(
                        follower, "ok", record=res.result, cache_hit=True))
                else:
                    # Degraded results are never cached or shared: the
                    # follower makes its own attempt.
                    submit(follower)

        def pump(wait: bool) -> None:
            """Handle the pool's reports; with ``wait``, block for at
            least one (or a backoff expiry) first."""
            while True:
                now = time.monotonic()
                while backoff and backoff[0][0] <= now:
                    submit(open_slots[heapq.heappop(backoff)[1]])
                timeout = max(0.0, backoff[0][0] - now) if backoff \
                    else None
                try:
                    report = inbox.get(block=wait, timeout=timeout)
                except queue.Empty:
                    if wait:
                        continue
                    return
                handle(*report)
                wait = False

        clean = False
        try:
            for index, job in enumerate(jobs):
                slot = _Slot(index, job)
                if self.cache is not None:
                    hit = self._try_cache(slot)
                    if hit is not None:
                        finish(slot, hit)
                        continue
                    if job.get("test_hook") is None:
                        # Chaos jobs fly alone, as in the service tier.
                        leader = leaders.get(slot.key)
                        if leader is not None:
                            leader.followers.append(slot)
                            continue
                        leaders[slot.key] = slot
                submit(slot)
                pump(wait=False)
            while open_slots:
                pump(wait=True)
            clean = True
        finally:
            # Interrupt/exception hygiene: whatever got us out of the
            # loop, no worker process of ours may outlive the run.
            if self.pool is None:
                pool.shutdown(drain=clean)
        self.submemo_totals = dict(pool.submemo_totals)
        return [r for r in results if r is not None]

    # -- cache ----------------------------------------------------------

    def _try_cache(self, slot: _Slot) -> Optional[JobResult]:
        """Cache lookup; on a miss the built function and key stick to
        the slot so the hot path never builds twice."""
        job = slot.job
        try:
            # The parent-side build walks the same BDD/kernel code as a
            # worker; suppress injected faults so worker-targeted chaos
            # (bdd.ite, kernel.dispatch) cannot crash the scheduler.
            with faults.suppressed():
                func = jobspec.build_function(job["source"])
        except Exception as exc:  # noqa: BLE001 — bad source: report it
            return self._result(slot, "failed",
                                error=f"{type(exc).__name__}: {exc}")
        slot.func = func
        slot.key = cache_key(func.canonical_key(), job["flow"],
                             job["config"])
        record = self.cache.get(slot.key)
        if record is None:
            job["wire"] = func.to_wire()
            return None
        return self._result(slot, "ok", record=record, cache_hit=True)

    # -- settle ---------------------------------------------------------

    def _settle(self, slot: _Slot, future: Future, at: float,
                backoff: List[Tuple[float, int]],
                on_event: Optional[EventSink]) -> Optional[JobResult]:
        """Walk one finished attempt down the failure ladder.

        Returns the job's :class:`JobResult`, or None when a crash was
        put in ``backoff`` for another attempt.
        """
        error = future.exception()
        payload = None if error is not None else future.result()
        outcome, reason = attempt_outcome(payload, error)
        decision = settle(outcome, slot.attempt, self.retries,
                          self.degrade)
        exec_s = at - slot.started_at
        if decision == "retry":
            slot.retries += 1
            delay = (self.retry_backoff_s * slot.retries
                     * self._rng.uniform(0.5, 1.5))
            heapq.heappush(backoff, (at + delay, slot.index))
            emit_event(on_event, ProgressEvent(
                kind="retry", job_id=slot.job["job_id"],
                index=slot.index, attempt=slot.attempt + 1,
                detail=str(error)))
            return None
        if decision == "ok":
            record = payload["result"]
            if slot.key is not None:  # set only with a cache attached
                self.cache.put(slot.key, record)
            return self._result(slot, "ok", record=record, exec_s=exec_s)
        hung = outcome == "hang"
        if decision == "fail":
            return self._result(slot, "failed", error=reason,
                                exec_s=exec_s, hung=hung)
        begun = time.monotonic()
        status, record, error_text = degrade(slot.job, slot.func, reason)
        return self._result(slot, status, record=record, error=error_text,
                            exec_s=exec_s + time.monotonic() - begun,
                            degraded=record is not None, hung=hung)

    @staticmethod
    def _result(slot: _Slot, status: str,
                record: Optional[Dict[str, Any]] = None,
                error: Optional[str] = None, exec_s: float = 0.0,
                degraded: bool = False, hung: bool = False,
                cache_hit: bool = False) -> JobResult:
        job = slot.job
        return JobResult(
            job_id=job["job_id"],
            source=jobspec.source_label(job["source"]),
            flow=job["flow"], status=status, result=record, error=error,
            cache_hit=cache_hit, degraded=degraded,
            queue_wait_s=slot.first_dispatch or 0.0,
            exec_s=exec_s, retries=slot.retries, beats=slot.beats,
            hung=hung)


def degrade(job: Dict[str, Any], func: Any, reason: str
            ) -> Tuple[str, Optional[Dict[str, Any]], str]:
    """Settle a job by degradation: ``(status, record, error)``.

    ``degraded`` with the trivial mapping's record, or ``failed`` with
    no record when even that cannot be built.  Recovery must succeed
    even under chaos: the fallback walks engine/BDD code where worker
    faults are armed, so it runs with every fault site suppressed.
    """
    try:
        with faults.suppressed():
            return "degraded", degraded_record(job, func=func), reason
    except Exception as exc:  # noqa: BLE001 — even fallback failed
        return ("failed", None, f"{reason}; fallback failed: "
                                f"{type(exc).__name__}: {exc}")


def degraded_record(job: Dict[str, Any],
                    func=None) -> Dict[str, Any]:
    """The graceful-degradation result: the trivial Shannon/MUX mapping.

    A :class:`DecompositionEngine` with a zero time budget skips the
    bound-set search entirely and walks the output BDDs into MUX trees —
    bounded by BDD size, deterministic, and never subject to the hang
    the real run may have hit (test hooks only fire inside workers).
    """
    from repro.core.api import map_to_xc3000
    if func is None:
        func = jobspec.build_function(job["source"])
    flow = FlowConfig.from_job(job.get("config"))
    fallback = map_to_xc3000(func, flow=flow, use_dontcares=False,
                             time_budget=0.0)
    record = fallback.to_record()
    record["degraded"] = True
    if job.get("flow") == "compare":
        record = {"mulopII": dict(record), "mulop_dc": dict(record),
                  "clbs_saved": 0, "degraded": True}
    elif flow.verify:
        record["verified"] = jobspec._verify_record(func, fallback)
    return record
