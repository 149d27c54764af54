"""Batch-execution runtime: parallel scheduling with a persistent cache.

Three pillars (see ``docs/RUNTIME.md`` for the design discussion):

* :mod:`repro.runtime.scheduler` — a :class:`BatchScheduler` that fans
  decomposition jobs out over a worker pool in submission order, with
  per-job wall-clock timeouts, bounded crash retries and graceful
  degradation to the trivial Shannon/MUX mapping;
* :mod:`repro.runtime.cache` — a content-addressed on-disk
  :class:`ResultCache` (``canonical_key`` + flow + engine config + code
  version) with an in-memory LRU front, behind ``repro cache
  {stats,clear}``;
* :mod:`repro.runtime.jobspec` — the JSON-able job wire format, manifest
  parsing and the worker-side job execution (with its heartbeat thread);
* :mod:`repro.runtime.journal` — the crash-safe write-ahead
  :class:`BatchJournal` behind ``repro batch --journal/--resume``;
* :mod:`repro.runtime.pool` — the persistent :class:`WorkerPool` with
  warm per-worker function memos that batch, ``repro serve`` and dist
  nodes all run on, the :class:`ProgressEvent` callbacks, and
  :func:`settle`, the failure ladder they share.

Quickstart::

    from repro.runtime import BatchScheduler, ResultCache, make_job
    jobs = [make_job({"kind": "benchmark", "name": n})
            for n in ("rd53", "rd73", "rd84")]
    results = BatchScheduler(workers=4, timeout=120,
                             cache=ResultCache("/tmp/repro-cache")).run(jobs)
"""

from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.runtime.jobspec import (
    build_function,
    execute_job,
    make_job,
    parse_manifest,
    parse_manifest_entry,
    source_from_name,
    source_label,
)
from repro.runtime.pool import (
    JobHung,
    JobTimeout,
    PoolClosed,
    PoolError,
    ProgressEvent,
    WorkerCrash,
    WorkerPool,
    resolve_workers,
    settle,
)
from repro.runtime.journal import (
    BatchJournal,
    JournalError,
    journal_binding,
    load_journal,
)
from repro.runtime.scheduler import (
    BatchScheduler,
    JobResult,
    degraded_record,
    summarize,
    summarize_rows,
)

__all__ = [
    "JobHung",
    "JobTimeout",
    "PoolClosed",
    "PoolError",
    "ProgressEvent",
    "WorkerCrash",
    "WorkerPool",
    "resolve_workers",
    "settle",
    "BatchJournal",
    "JournalError",
    "journal_binding",
    "load_journal",
    "BatchScheduler",
    "JobResult",
    "ResultCache",
    "CACHE_FORMAT_VERSION",
    "cache_key",
    "default_cache_dir",
    "build_function",
    "execute_job",
    "make_job",
    "parse_manifest",
    "parse_manifest_entry",
    "source_from_name",
    "source_label",
    "degraded_record",
    "summarize",
    "summarize_rows",
]
