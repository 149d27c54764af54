"""Span tracing from outside the program.

The traced run wraps, at run time, the names each caller looks up (a
module attribute such as ``repro.decomp.recursive.rank_bound_sets``, or
a method on its class).  Each wrapped call records a span ``(id, name,
start, end, parent, job)``; spans stay in memory until the process ends,
or, in a forked pool worker, until the job it runs ends.  Nothing under
``src/`` changes.

Run as a script, this module is a launcher that traces one ``repro``
command in a fresh interpreter::

    python e2ebench/spans.py SPAN_DIR map rd84 --blif-out out.blif

Spans of the command and of every worker it forks land as JSONL files
in ``SPAN_DIR``.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> (module, attribute path) of the name a caller looks up.
#: Callers that bound a name at import time need their own entry.
TARGETS: List[Tuple[str, str, str]] = [
    ("build.benchmark", "repro.bench.registry", "benchmark"),
    ("build.benchmark", "repro.cli", "benchmark"),
    ("build.parse_pla", "repro.boolfunc.pla", "parse_pla"),
    ("build.parse_pla", "repro.cli", "parse_pla"),
    ("build.build_function", "repro.runtime.jobspec", "build_function"),
    ("map", "repro.core.api", "map_to_xc3000"),
    ("map", "repro.cli", "map_to_xc3000"),
    ("decomp.run", "repro.decomp.recursive", "DecompositionEngine.run"),
    ("decomp.dsd", "repro.decomp.recursive", "shatter"),
    ("decomp.symmetry_groups", "repro.decomp.recursive",
     "symmetry_domain"),
    ("decomp.dc_step1", "repro.decomp.recursive", "assign_step1_symmetry"),
    ("decomp.dc_step2", "repro.decomp.recursive", "assign_step2_sharing"),
    ("decomp.dc_step3", "repro.decomp.recursive", "assign_step3_single"),
    ("decomp.rank_bound_sets", "repro.decomp.recursive",
     "rank_bound_sets"),
    ("decomp.classes_for", "repro.decomp.recursive", "classes_for"),
    ("decomp.classes_for", "repro.decomp.compat", "classes_for"),
    ("decomp.classes_for", "repro.decomp.bound_set", "classes_for"),
    ("decomp.classes_for", "repro.decomp.dontcare", "classes_for"),
    ("decomp.classes_for", "repro.decomp.single", "classes_for"),
    ("decomp.common_alphas", "repro.decomp.recursive",
     "select_common_alphas"),
    ("decomp.compose", "repro.decomp.recursive",
     "build_composition_for_output"),
    ("decomp.submemo_key", "repro.decomp.recursive", "sub_isf_key"),
    ("mapping.clb_pack", "repro.core.api", "merge_luts_xc3000"),
    ("mapping.clb_pack", "repro.core.api", "merge_luts_indexed"),
    ("mapping.to_blif", "repro.mapping.lutnet", "LutNetwork.to_blif"),
    ("verify.check", "repro.verify.equiv", "check_extension"),
    ("verify.check", "repro.network.bitsim", "sample_check"),
    ("runtime.cache.get", "repro.runtime.cache", "ResultCache.get"),
    ("runtime.cache.put", "repro.runtime.cache", "ResultCache.put"),
    ("runtime.execute", "repro.runtime.jobspec", "execute_job"),
]


def map_counters(result: Any) -> Dict[str, Any]:
    """Engine counters of one :class:`FpgaMappingResult`, as the program
    returns them."""
    stats = result.stats
    out: Dict[str, Any] = {
        "luts": result.lut_count,
        "clbs": result.clb_count,
        "steps": stats.decomposition_steps,
        "shannon_steps": stats.shannon_steps,
        "alphas_created": stats.alphas_created,
        "alphas_shared": stats.alphas_shared,
        "fallback": bool(stats.budget_exhausted
                         or stats.quarantined_outputs),
    }
    kernel = stats.kernel_metrics or {}
    out["kernel_hits"] = kernel.get("kernel_hits", 0)
    out["kernel_misses"] = kernel.get("kernel_misses", 0)
    memo = stats.submemo or {}
    out["submemo_hits"] = memo.get("run_hits", 0) + memo.get("store_hits", 0)
    out["submemo_misses"] = memo.get("misses", 0)
    bdd = stats.bdd_metrics
    if bdd is not None:
        out["ite_calls"] = bdd.ite_calls
        out["computed_hits"] = bdd.computed_hits
        out["computed_misses"] = bdd.computed_misses
        out["peak_nodes"] = bdd.peak_nodes
    return out


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.job: Optional[str] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            job = recorder.job
            if name == "runtime.execute" and args:
                job = recorder.job = str(args[0].get("job_id"))
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "job": job,
                    "pid": os.getpid()}
            if name == "map":
                span["attrs"] = map_counters(result)
            recorder.spans.append(span)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every target; each (owner, attribute) once."""
        for name, module_name, path in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            current = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if getattr(current, "__wrapped__", None) is not None:
                continue
            self._undo.append((owner, attr, current))
            setattr(owner, attr, self.wrap(name, current))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Dict[str, Any]]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    with open(path, "a") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(span_dir: str) -> List[Dict[str, Any]]:
    spans = []
    for name in sorted(os.listdir(span_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(span_dir, name)) as handle:
                spans.extend(json.loads(line) for line in handle)
    return spans


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the durations of its wrapped children
    (per process: span ids are per-process counters)."""
    child_time: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = (child_time.get(key, 0.0)
                               + span["end"] - span["start"])
    return {idx: span["end"] - span["start"]
            - child_time.get((span["pid"], span["id"]), 0.0)
            for idx, span in enumerate(spans)}


def install_in_process(span_dir: str) -> Recorder:
    """Trace this process and every worker it forks.

    A forked worker starts with an empty store and appends its spans to
    its own file each time a job ends; the process itself writes at
    exit.
    """
    recorder = Recorder()
    recorder.install()
    owner = os.getpid()

    def path() -> str:
        return os.path.join(span_dir, f"spans-{os.getpid()}.jsonl")

    def flush() -> None:
        write_spans(path(), recorder.take())

    def child_reset() -> None:
        recorder.spans = []
        recorder._local = threading.local()

    os.register_at_fork(after_in_child=child_reset)
    jobspec = importlib.import_module("repro.runtime.jobspec")
    traced_execute = jobspec.execute_job

    def execute_and_flush(*args, **kwargs):
        try:
            return traced_execute(*args, **kwargs)
        finally:
            if os.getpid() != owner:
                flush()

    execute_and_flush.__wrapped__ = traced_execute  # type: ignore
    jobspec.execute_job = execute_and_flush
    atexit.register(flush)
    return recorder


def main(argv: List[str]) -> int:
    span_dir, args = argv[0], argv[1:]
    recorder = install_in_process(span_dir)
    if len(args) > 1 and args[0] == "map":
        recorder.job = args[1]
    from repro.cli import main as repro_main
    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
