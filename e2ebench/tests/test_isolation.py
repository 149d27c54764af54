import json
import os
import shutil
import subprocess
import sys

import harness
from conftest import BENCH, ROOT


def test_context_keeps_every_cache_inside_its_work_dir(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    monkeypatch.setenv("REPRO_SUBMEMO_DIR", "/elsewhere")
    ctx = harness.Context(ROOT, 1, 1, False)
    other = harness.Context(ROOT, 1, 1, False)
    try:
        assert ctx.work != other.work
        env = ctx.env(REPRO_CACHE_DIR=ctx.fresh("cache"))
        assert env["REPRO_CACHE_DIR"].startswith(ctx.work)
        assert "REPRO_SUBMEMO_DIR" not in env
        assert env["HOME"].startswith(ctx.work)
        assert ctx.fresh("cache") != ctx.fresh("cache")
    finally:
        ctx.close()
        other.close()
    assert not os.path.exists(ctx.work)
    assert not os.path.exists(other.work)


def test_a_run_leaves_no_cache_or_memo_behind(tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    env = dict(os.environ, HOME=str(home))
    before = set(os.listdir(os.path.join(BENCH, ".work"))) \
        if os.path.isdir(os.path.join(BENCH, ".work")) else set()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "batch-small", "--seed", "3", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(os.listdir(os.path.join(BENCH, ".work"))) == before
    assert list(home.iterdir()) == []


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "table1-dc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
