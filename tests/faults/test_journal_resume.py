"""Write-ahead journal format and the ``batch --resume`` contract.

The crash-safety story: a journal records jobs as they start and finish,
fsync'd per record, so resuming after a ``kill -9`` reruns only the jobs
without a ``done`` record and splices the recorded rows back verbatim —
the merged output is byte-identical to an uninterrupted run modulo the
timing/retry fields.  (The actual SIGKILL end-to-end smoke lives in
``test_kill_resume.py`` / ``kill_resume_smoke.py``.)
"""

import json

import pytest

from repro.cli import main
from repro.runtime import (
    BatchJournal,
    JournalError,
    journal_binding,
    load_journal,
    make_job,
    source_from_name,
)
from repro.config import code_version

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12

#: Fields that legitimately differ between an interrupted-then-resumed
#: batch and an uninterrupted one (wall-clock and scheduling noise).
TIMING_FIELDS = ("queue_wait_s", "exec_s", "retries", "beats")


def _jobs(*names):
    jobs = [make_job(source_from_name(n)) for n in names]
    for job in jobs:
        job["config"] = {"use_dontcares": True}
    return jobs


def _normalize(rows):
    out = []
    for row in rows:
        row = {k: v for k, v in row.items() if k not in TIMING_FIELDS}
        out.append(json.dumps(row, sort_keys=True))
    return out


class TestJournalFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        jobs = _jobs("rd53", "xor5", "majority")
        journal = BatchJournal.create(path, jobs)
        journal.record_start(0, "rd53", 1)
        journal.record_done(0, {"job_id": "rd53", "status": "ok"})
        journal.record_start(1, "xor5", 1)          # in flight, no done
        journal.close()
        header, done, started, corrupt = load_journal(path)
        assert header["jobs"] == jobs
        assert header["binding"] == journal_binding(jobs)
        assert done == {0: {"job_id": "rd53", "status": "ok"}}
        assert started == {0, 1}
        assert corrupt == 0

    def test_wire_payload_stripped_from_header(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        jobs = _jobs("rd53")
        jobs[0]["wire"] = {"huge": "derived state"}
        BatchJournal.create(path, jobs).close()
        header, _, _, _ = load_journal(path)
        assert "wire" not in header["jobs"][0]
        # ... and the binding still matches (wire is excluded from it).
        assert header["binding"] == journal_binding(header["jobs"])

    def test_torn_tail_skipped(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        journal = BatchJournal.create(path, _jobs("rd53"))
        journal.record_done(0, {"status": "ok"})
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "done", "index"')  # died mid-append
        _, done, _, corrupt = load_journal(path)
        assert done == {0: {"status": "ok"}}
        assert corrupt == 1

    def test_unknown_and_malformed_records_counted(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        journal = BatchJournal.create(path, _jobs("rd53"))
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'"not a dict"\n')
            handle.write(b'{"kind": "mystery", "index": 0}\n')
            handle.write(b'{"kind": "start", "index": "zero"}\n')
        _, done, started, corrupt = load_journal(path)
        assert done == {} and started == set()
        assert corrupt == 3

    def test_out_of_range_index_dropped(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        journal = BatchJournal.create(path, _jobs("rd53"))
        journal.record_start(7, "ghost", 1)
        journal.record_done(7, {"status": "ok"})
        journal.close()
        _, done, started, corrupt = load_journal(path)
        assert done == {} and started == set()
        assert corrupt == 1  # the done row; starts are just filtered

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"kind": "start", "index": 0}\n')
        with pytest.raises(JournalError, match="header"):
            load_journal(str(path))
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            load_journal(str(path))

    def test_code_version_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        BatchJournal.create(path, _jobs("rd53")).close()
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["code_version"] = "repro-0.0.0/elsewhere"
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(lines[1:])
        with pytest.raises(JournalError, match="code version"):
            load_journal(path)

    def test_tampered_job_list_refused(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        BatchJournal.create(path, _jobs("rd53")).close()
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["jobs"][0]["config"]["use_dontcares"] = False
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(lines[1:])
        with pytest.raises(JournalError, match="binding mismatch"):
            load_journal(path)

    def test_binding_covers_code_version(self):
        jobs = _jobs("rd53")
        binding = journal_binding(jobs)
        assert binding == journal_binding([dict(j) for j in jobs])
        assert code_version()  # the binding would change with it
        different = _jobs("xor5")
        assert binding != journal_binding(different)


class TestCliResume:
    def _run(self, argv):
        return main(["batch", "--no-cache"] + argv)

    def test_resume_skips_done_jobs(self, tmp_path, capsys):
        journal = str(tmp_path / "b.jsonl")
        full_out = str(tmp_path / "full.jsonl")
        # Uninterrupted journaled run: the reference output.
        assert self._run(["rd53", "xor5", "majority", "--jobs", "1",
                          "--journal", journal,
                          "--out", full_out]) == 0
        capsys.readouterr()
        # Simulate dying after the first two jobs completed: keep the
        # header, the first two start/done pairs, and a dangling start
        # for the third (it was in flight).
        header, done, started, corrupt = load_journal(journal)
        with open(journal) as handle:
            lines = handle.readlines()
        kept = [lines[0]]
        kept += [line for line in lines[1:]
                 if json.loads(line)["index"] in (0, 1)]
        kept.append(json.dumps({"kind": "start", "index": 2,
                                "job_id": "majority", "attempt": 1})
                    + "\n")
        truncated = str(tmp_path / "partial.jsonl")
        with open(truncated, "w") as handle:
            handle.writelines(kept)
        resumed_out = str(tmp_path / "resumed.jsonl")
        assert self._run(["--resume", truncated,
                          "--out", resumed_out]) == 0
        stdout = capsys.readouterr().out
        assert "2 job(s) already done, 1 in-flight replayed, 1 to run" \
            in stdout
        # Only the in-flight job reran.
        assert "[3/3] majority" in stdout
        assert "[1/3]" not in stdout.split("resuming")[1].split("\n")[1]
        full = [json.loads(l) for l in open(full_out)]
        resumed = [json.loads(l) for l in open(resumed_out)]
        assert _normalize(resumed) == _normalize(full)

    def test_resume_of_complete_journal_runs_nothing(self, tmp_path,
                                                     capsys):
        journal = str(tmp_path / "b.jsonl")
        out1 = str(tmp_path / "a.jsonl")
        out2 = str(tmp_path / "b-out.jsonl")
        assert self._run(["rd53", "xor5", "--journal", journal,
                          "--out", out1]) == 0
        capsys.readouterr()
        assert self._run(["--resume", journal, "--out", out2]) == 0
        stdout = capsys.readouterr().out
        assert "2 job(s) already done, 0 in-flight replayed, 0 to run" \
            in stdout
        # Replayed rows are the journal's rows *verbatim* — timing
        # fields included, because nothing reran.
        assert open(out2).read() == open(out1).read()

    def test_resume_then_another_resume(self, tmp_path, capsys):
        # The resumed run appends its own records to the same journal,
        # so a second resume finds everything done.
        journal = str(tmp_path / "b.jsonl")
        assert self._run(["rd53", "xor5", "--jobs", "1",
                          "--journal", journal]) == 0
        with open(journal) as handle:
            lines = handle.readlines()
        kept = [line for line in lines
                if json.loads(line).get("index") != 1]
        with open(journal, "w") as handle:
            handle.writelines(kept)
        capsys.readouterr()
        assert self._run(["--resume", journal]) == 0
        assert "1 to run" in capsys.readouterr().out
        assert self._run(["--resume", journal]) == 0
        assert "0 to run" in capsys.readouterr().out

    def test_resume_with_matching_manifest_ok(self, tmp_path, capsys):
        journal = str(tmp_path / "b.jsonl")
        manifest = tmp_path / "suite.txt"
        manifest.write_text("rd53\nxor5\n")
        assert self._run(["--manifest", str(manifest),
                          "--journal", journal]) == 0
        capsys.readouterr()
        assert self._run(["--manifest", str(manifest),
                          "--resume", journal]) == 0

    def test_resume_with_different_manifest_refused(self, tmp_path,
                                                    capsys):
        journal = str(tmp_path / "b.jsonl")
        assert self._run(["rd53", "xor5", "--journal", journal]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit,
                           match="does not match the given"):
            self._run(["rd53", "majority", "--resume", journal])

    def test_resume_plus_journal_refused(self, tmp_path):
        journal = str(tmp_path / "b.jsonl")
        assert self._run(["rd53", "--journal", journal]) == 0
        with pytest.raises(SystemExit, match="do not pass --journal"):
            self._run(["--resume", journal, "--journal",
                       str(tmp_path / "other.jsonl")])

    def test_resume_missing_journal_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            self._run(["--resume", str(tmp_path / "nope.jsonl")])

    def test_resume_corrupt_header_is_clean_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        with pytest.raises(SystemExit, match="journal"):
            self._run(["--resume", str(bad)])
