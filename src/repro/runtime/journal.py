"""Crash-safe write-ahead journal for batch runs.

A journal is a JSONL file the batch parent appends to as jobs start and
finish, fsync'd per record, so a ``kill -9`` mid-batch costs only the
jobs that were in flight::

    {"kind": "header", "journal_version": 1, "binding": "...",
     "code_version": "...", "jobs": [<job dict>, ...]}
    {"kind": "start", "index": 0, "job_id": "rd53", "attempt": 1}
    {"kind": "done",  "index": 0, "row": {<JobResult.as_dict()>}}
    {"kind": "claim",    "index": 3, "node": "host:port"}   (dist only)
    {"kind": "reassign", "index": 3, "node": "host:port"}   (dist only)
    ...

* The **header** binds the journal to its workload: ``jobs`` carries the
  full job dicts (so ``repro batch --resume <journal>`` is
  self-contained — no manifest needed), and ``binding`` is a SHA-256
  over those jobs plus the code version (a hash of the engine sources,
  :func:`repro.config.code_version`; :func:`journal_binding`).
  Resuming against a different manifest or a different code version is
  refused — replaying half a batch under changed semantics would
  silently mix incomparable rows.
* **start** records mark dispatch; a start without a matching done is a
  job that was *in flight* when the parent died — resume re-runs it.
* **done** records carry the full result row; resume skips these jobs
  and splices the recorded rows into the merged output verbatim, which
  is what makes an interrupted-then-resumed batch byte-identical to an
  uninterrupted one modulo timing/retry fields.
* **claim**/**reassign** records are written only by the distributed
  coordinator (``repro batch --nodes --journal``): a claim binds an
  in-flight index to the node it shipped to, a reassign marks that
  binding void (node loss).  Resume does not need them — a claim
  without a done is in-flight and reruns regardless — but they make a
  post-mortem journal tell the whole story of who held what when.

Torn tails (the parent died mid-append) and corrupted records (chaos
``journal.append:corrupt`` bit-flips) are *skipped and counted*, never
trusted: a job whose done record is unreadable is simply re-run.
Appends route through the ``journal.append`` fault site; append
*failures* disable journaling for the rest of the run instead of
killing the batch (the journal is a durability aid, not a correctness
dependency — a batch without a journal is merely unresumable).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.config import code_version, config_key
from repro.faults import fault_point

#: Bump on layout changes; resume refuses mismatched journals.
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """An unusable journal (missing/invalid header, binding mismatch)."""


def journal_binding(jobs: List[Dict[str, Any]]) -> str:
    """SHA-256 binding a job list + the code version.

    Deterministic across processes: only the declarative job fields are
    hashed (``wire`` payloads are derived state), each job's flow and
    config through the same :func:`~repro.config.config_key` text its
    cache key uses.
    """
    view = [{"job_id": job.get("job_id"), "source": job.get("source"),
             "test_hook": job.get("test_hook"),
             "key": config_key(job.get("flow"), job.get("config"))}
            for job in jobs]
    blob = json.dumps(view, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _strip_wire(job: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in job.items() if k != "wire"}


class BatchJournal:
    """Appender for one batch run's journal file.

    ``site`` names the fault site every append routes through — the
    single-host scheduler journals under ``journal.append``, the
    distributed coordinator under ``coord.journal`` — so chaos can arm
    either tier independently.  Appends are serialized by an internal
    lock: the coordinator's per-node reader threads all record rows.
    """

    def __init__(self, path: str, handle,
                 site: str = "journal.append") -> None:
        self.path = path
        self._handle = handle
        self.site = site
        self._lock = threading.Lock()
        #: Set after an append failure; later appends become no-ops.
        self.broken = False

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, path: str, jobs: List[Dict[str, Any]],
               site: str = "journal.append") -> "BatchJournal":
        """Start a fresh journal: truncate and write the bound header."""
        handle = open(path, "wb")
        journal = cls(path, handle, site=site)
        journal._append({
            "kind": "header",
            "journal_version": JOURNAL_VERSION,
            "binding": journal_binding(jobs),
            "code_version": code_version(),
            "jobs": [_strip_wire(job) for job in jobs],
        })
        return journal

    @classmethod
    def resume(cls, path: str,
               site: str = "journal.append") -> "BatchJournal":
        """Reopen an existing journal for appending (post-:func:`load`)."""
        return cls(path, open(path, "ab"), site=site)

    # -- records ---------------------------------------------------------

    def record_start(self, index: int, job_id: str, attempt: int) -> None:
        self._append({"kind": "start", "index": index, "job_id": job_id,
                      "attempt": attempt})

    def record_done(self, index: int, row: Dict[str, Any]) -> None:
        self._append({"kind": "done", "index": index, "row": row})

    def record_claim(self, index: int, node: str) -> None:
        """Bind an in-flight ``index`` to the node it was shipped to."""
        self._append({"kind": "claim", "index": index, "node": node})

    def record_reassign(self, index: int, node: str) -> None:
        """Void a claim: ``node`` was lost holding ``index``."""
        self._append({"kind": "reassign", "index": index, "node": node})

    def _append(self, record: Dict[str, Any]) -> None:
        if self.broken:
            return
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        try:
            with self._lock:
                data = fault_point(self.site, data)
                self._handle.write(data)
                self._handle.flush()
                os.fsync(self._handle.fileno())
        except Exception as exc:  # noqa: BLE001 — journaling is best-effort
            self.broken = True
            print(f"warning: journal append failed "
                  f"({type(exc).__name__}: {exc}); journaling disabled "
                  f"for the rest of this run", file=sys.stderr)

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


def load_journal(path: str) -> Tuple[Dict[str, Any],
                                     Dict[int, Dict[str, Any]],
                                     Set[int], int]:
    """Read a journal back: ``(header, done_rows, started, corrupt)``.

    ``done_rows`` maps job *index* (position in the header's job list)
    to the recorded result row; ``started`` is the set of indexes with a
    start record (in-flight = started minus done); ``corrupt`` counts
    skipped unreadable lines (torn tail included).

    Raises :class:`JournalError` when the header is missing, malformed,
    from another journal version, or from another code version.
    """
    header: Optional[Dict[str, Any]] = None
    done: Dict[int, Dict[str, Any]] = {}
    started: Set[int] = set()
    corrupt = 0
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                record = json.loads(raw.decode())
            except (ValueError, UnicodeDecodeError):
                # Torn tail or chaos-corrupted record: skip, never trust.
                corrupt += 1
                continue
            if not isinstance(record, dict):
                corrupt += 1
                continue
            if lineno == 1:
                if (record.get("kind") != "header"
                        or record.get("journal_version") != JOURNAL_VERSION
                        or not isinstance(record.get("jobs"), list)):
                    raise JournalError(
                        f"{path}: not a batch journal (bad or missing "
                        f"header)")
                if record.get("code_version") != code_version():
                    raise JournalError(
                        f"{path}: journal was written by code version "
                        f"{record.get('code_version')!r}, this is "
                        f"{code_version()!r} — results would not be "
                        f"comparable; rerun the batch from scratch")
                header = record
                continue
            if header is None:
                raise JournalError(f"{path}: no journal header")
            kind = record.get("kind")
            index = record.get("index")
            if not isinstance(index, int):
                corrupt += 1
                continue
            if kind == "start":
                started.add(index)
            elif kind == "done" and isinstance(record.get("row"), dict):
                done[index] = record["row"]
            elif kind == "claim":
                # A distributed claim implies dispatch even if the start
                # append was the record the crash tore.
                started.add(index)
            elif kind == "reassign":
                pass  # membership bookkeeping; nothing to replay
            else:
                corrupt += 1
    if header is None:
        raise JournalError(f"{path}: empty journal (no header)")
    if header.get("binding") != journal_binding(header["jobs"]):
        raise JournalError(
            f"{path}: header binding mismatch — the job list was "
            f"modified after the journal was written")
    # Rows for indexes outside the job list are corruption, not data.
    n = len(header["jobs"])
    for index in [i for i in done if not 0 <= i < n]:
        del done[index]
        corrupt += 1
    started = {i for i in started if 0 <= i < n}
    return header, done, started, corrupt
