"""The batch scheduler on the persistent worker pool.

Pins what moving ``repro batch`` from one process per attempt onto the
warm :class:`WorkerPool` must keep or add: the one failure ladder, the
meaning of the row timings, in-batch dedup of repeated jobs, worker
retirement after a failed job, and rows that do not depend on the
worker count.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.cli import main
from repro.runtime import (
    BatchScheduler,
    ResultCache,
    WorkerPool,
    make_job,
    settle,
    source_from_name,
)
from repro.runtime.pool import (
    JobHung,
    JobTimeout,
    PoolClosed,
    WorkerCrash,
    attempt_outcome,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


def _jobs(*names, **kwargs):
    return [make_job(source_from_name(n), **kwargs) for n in names]


class TestLadder:
    @pytest.mark.parametrize("outcome, attempt, retries, expected", [
        ("ok", 1, 0, "ok"),
        ("crash", 1, 1, "retry"),
        ("crash", 2, 2, "retry"),
        ("crash", 2, 1, "degrade"),
        ("crash", 1, 0, "degrade"),
        ("timeout", 1, 3, "degrade"),
        ("hang", 1, 3, "degrade"),
        ("error", 1, 3, "degrade"),
        ("closed", 1, 3, "fail"),
    ])
    def test_decisions(self, outcome, attempt, retries, expected):
        assert settle(outcome, attempt, retries) == expected

    @pytest.mark.parametrize("outcome",
                             ["crash", "timeout", "hang", "error"])
    def test_no_degradation_means_fail(self, outcome):
        assert settle(outcome, 9, 0, degrade=False) == "fail"

    def test_retry_survives_degrade_off(self):
        assert settle("crash", 1, 1, degrade=False) == "retry"

    def test_outcome_classification(self):
        def outcome(payload=None, error=None):
            return attempt_outcome(payload, error)[0]

        assert attempt_outcome({"status": "ok"}) == ("ok", None)
        assert attempt_outcome({"status": "failed", "error": "E"}) == \
            ("error", "E")
        assert attempt_outcome(error=WorkerCrash(23)) == \
            ("crash", "worker crashed (exit code 23), retries exhausted")
        assert outcome(error=MemoryError()) == "crash"
        assert outcome(error=faults.FaultInjected("x")) == "crash"
        assert outcome(error=JobTimeout(1.0)) == "timeout"
        assert outcome(error=JobHung(2.0, None)) == "hang"
        assert outcome(error=PoolClosed("x")) == "closed"


class TestInBatchDedup:
    def test_repeats_wait_for_the_first_occurrence(self, tmp_path):
        dispatched = []
        results = BatchScheduler(workers=2,
                                 cache=ResultCache(tmp_path)).run(
            _jobs("rd53", "rd53", "rd53", "xor5"),
            on_dispatch=lambda index, attempt: dispatched.append(index))
        assert sorted(dispatched) == [0, 3]  # one computed rd53
        assert [r.cache_hit for r in results] == [False, True, True,
                                                  False]
        assert all(r.status == "ok" for r in results)
        lead = results[0]
        for follower in results[1:3]:
            assert follower.result == lead.result
            assert follower.exec_s == 0.0
            assert follower.retries == 0

    def test_follower_computes_when_the_leader_degrades(
            self, tmp_path, monkeypatch):
        # Every attempt crashes at worker start: the leader degrades, so
        # the follower must make its own attempt, never copy a
        # degraded record.
        monkeypatch.setenv(faults.ENV_VAR, "worker.start:crash:1:1")
        dispatched = []
        results = BatchScheduler(workers=1, retries=0,
                                 cache=ResultCache(tmp_path)).run(
            _jobs("xor5", "xor5"),
            on_dispatch=lambda index, attempt: dispatched.append(index))
        assert dispatched == [0, 1]
        assert [r.status for r in results] == ["degraded", "degraded"]
        assert not any(r.cache_hit for r in results)

    def test_cli_manifest_counts_repeats_as_hits(self, tmp_path, capsys):
        manifest = tmp_path / "suite.txt"
        manifest.write_text("rd53\nrd53\nrd53\nxor5\n")
        out = tmp_path / "rows.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        rd53 = [r for r in rows if r["job_id"] == "rd53"]
        assert [r["cache_hit"] for r in rd53] == [False, True, True]
        assert rd53[0]["result"] == rd53[1]["result"] == rd53[2]["result"]
        assert "cache hits 2/4" in capsys.readouterr().out


class TestRowTimings:
    def test_exec_excludes_time_queued_in_the_pool(self):
        jobs = _jobs("rd53", "rd53", test_hook="sleep:0.3")
        first, second = BatchScheduler(workers=1).run(jobs)
        assert second.queue_wait_s >= 0.3  # waited for the first job
        for row in (first, second):
            assert row.status == "ok"
            assert 0.3 <= row.exec_s < 0.6


class TestWorkerRetirement:
    def test_failed_job_retires_its_worker(self, monkeypatch):
        # bdd.ite's first arrival is in the function build, outside the
        # engine's quarantine, so the job reports a failed payload.
        monkeypatch.setenv(faults.ENV_VAR, "bdd.ite:raise:1:1")
        pool = WorkerPool(1, heartbeat_s=0.2)
        try:
            future = pool.submit(_jobs("rd53", test_hook="sleep:0.3")[0])
            deadline = time.monotonic() + 10
            while not pool.stats()["pids"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            [failed_pid] = pool.stats()["pids"]
            payload = future.result(timeout=120)
            assert payload["status"] == "failed"
            assert "FaultInjected" in payload["error"]
            # A respawned worker forks from the parent as it is now, so
            # disarming here makes the next job clean — unless the old
            # worker (armed at its fork) were still serving.
            monkeypatch.delenv(faults.ENV_VAR)
            clean = pool.submit(_jobs("rd53")[0]).result(timeout=120)
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["pids"] and failed_pid not in stats["pids"]
        finally:
            pool.shutdown()
        fresh_pool = WorkerPool(1)
        try:
            fresh = fresh_pool.submit(_jobs("rd53")[0]).result(timeout=120)
        finally:
            fresh_pool.shutdown()
        assert clean["status"] == "ok"
        assert clean["result"] == fresh["result"]
        assert multiprocessing.active_children() == []


def _alive(pid):
    """Running, not gone or a zombie awaiting its new parent's reap."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process state from /proc")
class TestParentKilled:
    def test_idle_workers_exit_when_the_parent_is_killed(self):
        # Forked siblings inherit copies of each other's parent pipe
        # ends; unless every worker lets go of them, no worker sees EOF
        # when the parent is SIGKILLed, and every kill -9 of a batch
        # leaks its workers.
        code = (
            "from repro.runtime import WorkerPool, make_job, "
            "source_from_name\n"
            "pool = WorkerPool(2)\n"
            "futures = [pool.submit(make_job(source_from_name(n)))\n"
            "           for n in ('rd53', 'xor5')]\n"
            "[f.result(timeout=120) for f in futures]\n"
            "print(*pool.stats()['pids'], flush=True)\n"
            "import time; time.sleep(120)\n")
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        parent = subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert pids and all(_alive(pid) for pid in pids)
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 10
        try:
            while any(_alive(pid) for pid in pids):
                assert time.monotonic() < deadline, "orphaned pool workers"
                time.sleep(0.1)
        finally:
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)


class TestInheritedSockets:
    def test_workers_let_go_of_the_parents_sockets(self):
        # A worker forked while the parent had a connection open must
        # not keep it alive: the peer sees EOF when the parent closes.
        mine, peer = socket.socketpair()
        pool = WorkerPool(1)
        try:
            pool.submit(_jobs("xor5")[0]).result(timeout=120)
            mine.close()
            peer.settimeout(10)
            assert peer.recv(1) == b""
        finally:
            peer.close()
            pool.shutdown()


#: Fast Table 1 circuits plus small synthetic jobs, with repeats.
_MANIFEST = ["misex1", "rd73", "rd84", "z4ml", "9sym", "clip", "sao2",
             "vg2", "synth:b:8:2:1", "synth:b:9:3:2", "synth:b:10:2:3",
             "synth:b:8:4:4", "synth:b:11:3:5", "rd84", "synth:b:9:3:2",
             "z4ml", "synth:b:9:3:2", "misex1"]


class TestRowsIndependentOfWorkerCount:
    def test_stable_rows_identical_at_one_and_two_jobs(self, tmp_path):
        manifest = tmp_path / "suite.txt"
        manifest.write_text("\n".join(_MANIFEST) + "\n")
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"rows-{jobs}.jsonl"
            assert main(["batch", "--manifest", str(manifest),
                         "--jobs", jobs, "--include-blif",
                         "--cache-dir", str(tmp_path / f"cache-{jobs}"),
                         "--stable-rows", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0].splitlines()]
        assert sum(r["cache_hit"] for r in rows) == 5  # the repeats
