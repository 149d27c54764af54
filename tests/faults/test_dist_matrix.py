"""Containment matrix for the crash-safe-dist fault sites.

Three sites landed with coordinator journaling and dynamic membership,
and each gets every fault kind:

``coord.journal``
    Coordinator-side journal appends (header, start, claim, reassign,
    done).  Any injected failure disables journaling for the rest of
    the run — the batch itself must complete journal-less; a corrupt
    append is skipped (and counted) at load time; a crash leaves a
    loadable journal behind for ``--resume``.

``node.join``
    A node's first registration against the membership listener.  The
    join loop's bounded backoff absorbs every non-crash kind (the
    retry re-registers and the batch completes); the crash kind is a
    real ``os._exit`` in a subprocess joiner.

``node.reconnect``
    The re-registration after a torn session.  Armed together with
    ``node.loss`` so a real session death forces the rejoin path; the
    batch must complete with exactly one row per index whatever the
    rejoin suffers.

Non-crash kinds run in-process (the coordinator, the static node, and
the joiner share the pytest interpreter; the spec's site filter keeps
them apart).  Crash kinds need a sacrificial process: a subprocess
joiner via ``repro dist serve-node --join --inject``, or
``chaos_util.run_python`` for the coordinator.
"""

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.dist.coordinator import DistCoordinator
from repro.dist.node import NodeServer
from repro.runtime.jobspec import make_job, source_from_name
from repro.runtime.journal import BatchJournal, load_journal

from tests.faults.chaos_util import REPO_ROOT, run_python

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12

CIRCUITS = ("xor5", "rd53", "majority", "misex1", "rd73", "rd84")
#: The joiner-vs-drain races need real runway: 5xp1 keeps the batch
#: alive well past any injected registration delay or rejoin backoff.
LONG_CIRCUITS = CIRCUITS + ("5xp1",)


def test_new_sites_registered():
    for site in ("coord.journal", "node.join", "node.reconnect"):
        assert site in faults.SITES


def make_jobs(names=CIRCUITS):
    return [make_job(source_from_name(name)) for name in names]


def start_static_node():
    server = NodeServer(port=0, workers=2, heartbeat_s=0.5).start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def start_joiner(address_queue, **node_kw):
    node_kw.setdefault("workers", 2)
    node_kw.setdefault("heartbeat_s", 0.5)
    node_kw.setdefault("join_backoff_s", 0.05)
    node_kw.setdefault("join_tries", 20)
    joiner = NodeServer(**node_kw)
    outcome = {}

    def run():
        try:
            host, port = address_queue.get(timeout=30.0)
        except queue.Empty:
            outcome["clean"] = False
            return
        outcome["clean"] = joiner.serve_join(host, port)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return joiner, thread, outcome


def spawn_subprocess_node(*extra_argv):
    """A subprocess node (clean fault env unless ``--inject`` given)."""
    env = dict(os.environ)
    src = str(Path(REPO_ROOT) / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.pop(faults.ENV_VAR, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "dist", "serve-node",
         "--workers", "2", "--heartbeat", "0.5", *extra_argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)


def wait_for_line(proc, needle, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        line = proc.stdout.readline()
        if needle in line:
            return line
        if not line or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"subprocess never printed {needle!r}")


def spawn_accept_node():
    proc = spawn_subprocess_node("--port", "0")
    line = wait_for_line(proc, "node serving on")
    addr = line.split("node serving on", 1)[1].split()[0]
    host, _, port = addr.rpartition(":")
    return proc, (host, int(port))


def terminate(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()


class TestCoordJournalSite:
    """Journal I/O failure must cost the journal, never the batch."""

    def run_journaled(self, tmp_path):
        static, thread = start_static_node()
        path = str(tmp_path / "dist.jnl")
        jobs = make_jobs(("xor5", "rd53", "majority"))
        journal = BatchJournal.create(path, jobs, site="coord.journal")
        try:
            coordinator = DistCoordinator(
                [(static.host, static.port)], journal=journal)
            rows = coordinator.run(jobs)
        finally:
            journal.close()
            static.close()
            thread.join(timeout=5.0)
        return path, journal, rows

    @pytest.mark.parametrize("kind", ["raise", "oom"])
    def test_append_failure_degrades_to_journal_less(self, tmp_path,
                                                     monkeypatch,
                                                     capsys, kind):
        # nth=2: the header survives, the first dispatch record fails —
        # mid-batch is exactly when losing the journal must not matter.
        monkeypatch.setenv(faults.ENV_VAR, f"coord.journal:{kind}:1:2")
        path, journal, rows = self.run_journaled(tmp_path)
        assert all(r["status"] == "ok" for r in rows)
        assert journal.broken
        assert "journal append failed" in capsys.readouterr().err
        header, done, started, corrupt = load_journal(path)
        assert header is not None
        assert done == {} and corrupt == 0

    def test_corrupt_append_is_skipped_on_load(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "coord.journal:corrupt:1:2")
        # Seed 3 flips a structural character (same shape the
        # journal.append matrix pins), so the record fails to parse.
        monkeypatch.setenv(faults.SEED_ENV, "3")
        path, journal, rows = self.run_journaled(tmp_path)
        assert all(r["status"] == "ok" for r in rows)
        assert not journal.broken
        header, done, started, corrupt = load_journal(path)
        assert corrupt == 1
        # Everything around the poisoned line still loads.
        assert set(done) == {0, 1, 2}

    def test_hang_append_completes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "coord.journal:hang:1:2")
        monkeypatch.setenv(faults.HANG_ENV, "0.05")
        path, journal, rows = self.run_journaled(tmp_path)
        assert all(r["status"] == "ok" for r in rows)
        _, done, _, corrupt = load_journal(path)
        assert set(done) == {0, 1, 2} and corrupt == 0

    def test_crash_leaves_loadable_journal(self, tmp_path):
        # The coordinator process dies mid-append (here during the
        # reassign burst for an unreachable node); whatever hit the
        # disk first must load, torn tail and all — that is the
        # --resume contract the SIGKILL smoke exercises end to end.
        path = tmp_path / "dist.jnl"
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        code = (
            "from repro.dist.coordinator import DistCoordinator\n"
            "from repro.runtime.jobspec import make_job, "
            "source_from_name\n"
            "from repro.runtime.journal import BatchJournal\n"
            "jobs = [make_job(source_from_name(n)) "
            "for n in ('xor5', 'rd53')]\n"
            f"journal = BatchJournal.create({str(path)!r}, jobs, "
            "site='coord.journal')\n"
            f"coordinator = DistCoordinator([('127.0.0.1', {dead_port})],"
            " rpc_tries=1, connect_timeout_s=2.0, journal=journal)\n"
            "coordinator.run(jobs)\n"
        )
        proc = run_python(code, env_extra={
            faults.ENV_VAR: "coord.journal:crash:1:3"})
        assert proc.returncode == faults.CRASH_EXIT_CODE
        header, done, started, corrupt = load_journal(str(path))
        assert header is not None
        assert done == {}
        assert corrupt <= 1  # at most the torn mid-append line


class TestNodeJoinSite:
    """A poisoned first registration is retried, never fatal to the
    batch (the static node carries it regardless)."""

    def run_with_joiner(self, monkeypatch, spec, hang_s=None):
        monkeypatch.setenv(faults.ENV_VAR, spec)
        if hang_s is not None:
            monkeypatch.setenv(faults.HANG_ENV, str(hang_s))
        static, thread = start_static_node()
        addresses = queue.Queue()
        joiner, jthread, outcome = start_joiner(addresses)
        try:
            coordinator = DistCoordinator(
                [(static.host, static.port)],
                on_listen=lambda h, p: addresses.put((h, p)))
            rows = coordinator.run(make_jobs(LONG_CIRCUITS))
            # Snapshot before delenv: the counters live on the plan
            # armed from the environment.
            fired = faults.counters()
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            static.close()
            thread.join(timeout=5.0)
            jthread.join(timeout=10.0)
        return coordinator, rows, fired

    @pytest.mark.parametrize("kind", ["raise", "oom"])
    def test_poisoned_join_is_retried(self, monkeypatch, kind):
        coordinator, rows, fired = self.run_with_joiner(
            monkeypatch, f"node.join:{kind}:1:1")
        assert all(r["status"] == "ok" for r in rows)
        # The first attempt burned the fault; the backoff retry joined.
        assert coordinator.joins == 1
        assert fired.get(f"node.join:{kind}") == 1

    def test_corrupt_join_frame_is_refused_then_retried(self,
                                                        monkeypatch):
        monkeypatch.setenv(faults.SEED_ENV, "3")
        coordinator, rows, _ = self.run_with_joiner(
            monkeypatch, "node.join:corrupt:1:1")
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.joins >= 1

    def test_hung_join_delays_but_registers(self, monkeypatch):
        coordinator, rows, _ = self.run_with_joiner(
            monkeypatch, "node.join:hang:1:1", hang_s=0.2)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.joins == 1

    def test_crash_kills_the_joiner_only(self, tmp_path):
        # The joiner process os._exits mid-registration; the listener
        # (here a bare socket standing in for the coordinator) just
        # sees a dead connection.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        proc = spawn_subprocess_node(
            "--join", f"127.0.0.1:{port}", "--join-tries", "2",
            "--inject", "node.join:crash:1:1")
        try:
            assert proc.wait(timeout=30.0) == faults.CRASH_EXIT_CODE
        finally:
            proc.kill()
            listener.close()


class TestNodeReconnectSite:
    """node.loss tears the joiner's session for real; the armed
    reconnect kind then hits the rejoin itself.  The invariant is one
    row per index, all ok — the static node is the safety net."""

    @pytest.mark.parametrize("kind", ["raise", "oom", "corrupt", "hang"])
    def test_poisoned_rejoin_is_contained(self, monkeypatch, kind):
        static_proc, static_addr = spawn_accept_node()
        spec = f"node.loss:raise:1:1,node.reconnect:{kind}:1:1"
        monkeypatch.setenv(faults.ENV_VAR, spec)
        if kind == "corrupt":
            monkeypatch.setenv(faults.SEED_ENV, "3")
        if kind == "hang":
            monkeypatch.setenv(faults.HANG_ENV, "0.2")
        addresses = queue.Queue()
        joiner, thread, outcome = start_joiner(addresses,
                                               node_id="rejoiner")
        try:
            coordinator = DistCoordinator(
                [static_addr],
                on_listen=lambda h, p: addresses.put((h, p)))
            rows = coordinator.run(make_jobs(LONG_CIRCUITS))
            fired = faults.counters()
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            terminate(static_proc)
            thread.join(timeout=10.0)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.joins == 1
        assert sorted(r["index"] for r in rows) == \
            list(range(len(LONG_CIRCUITS)))
        # The session really died and the rejoin really hit the site.
        assert fired.get("node.loss:raise") == 1
        assert fired.get(f"node.reconnect:{kind}", 0) >= 1

    def test_crash_on_rejoin_kills_the_joiner_only(self, tmp_path):
        # Pre-pick the join port so the subprocess joiner can start
        # dialing before the batch does (its interpreter start-up is
        # the slow part); it registers, loses its session to node.loss,
        # then os._exits inside the rejoin.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        join_port = probe.getsockname()[1]
        probe.close()
        proc = spawn_subprocess_node(
            "--join", f"127.0.0.1:{join_port}", "--join-tries", "60",
            "--join-backoff", "0.1", "--node-id", "crash-joiner",
            "--inject", "node.loss:raise:1:1,node.reconnect:crash:1:1")
        wait_for_line(proc, "joining coordinator")
        static, thread = start_static_node()
        try:
            coordinator = DistCoordinator(
                [(static.host, static.port)], join_port=join_port)
            # Heavy jobs first: they hold both static workers, so the
            # small ones stay queued (stealable) for the joiner's dial
            # backoff; warm pool workers drain small jobs in tens of ms.
            rows = coordinator.run(make_jobs(
                ("duke2", "5xp1", "xor5", "rd53",
                 "majority", "misex1", "rd73", "rd84")))
            assert proc.wait(timeout=60.0) == faults.CRASH_EXIT_CODE
        finally:
            proc.kill()
            static.close()
            thread.join(timeout=5.0)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.joins >= 1
        assert sorted(r["index"] for r in rows) == list(range(8))
