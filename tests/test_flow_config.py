"""One FlowConfig: every key derives from it, and a cached, batched or
served count equals a fresh run.

The regression tests pin the case the keys used to get wrong: rd84 maps
to 9 CLBs with the DSD pre-pass and 8 without, and a warm cache written
with DSD on must not answer a DSD-off run.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.config import OUTPUT_FIELDS, FlowConfig, code_version
from repro.decomp.recursive import DecompositionEngine
from repro.runtime import journal_binding, make_job, source_from_name
from repro.runtime.cache import cache_key

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def derived_keys(flow: FlowConfig):
    """The job-cache key, sub-ISF memo tag and journal binding of a
    ``map`` job run under ``flow``."""
    config = flow.job_config("map")
    job = make_job(source_from_name("rd84"), config=config)
    return (cache_key("func", "map", config), flow.output_key(),
            journal_binding([job]))


class TestEncoding:
    def test_defaults_encode_as_before(self):
        assert FlowConfig().job_config("map") == {"use_dontcares": True}
        assert FlowConfig().job_config("compare") == {}
        assert FlowConfig(use_dontcares=False, verify=False).job_config(
            "map") == {"use_dontcares": False, "verify": False}

    def test_dsd_off_enters_the_config(self):
        assert FlowConfig(use_dsd=False).job_config("map") == {
            "use_dontcares": True, "use_dsd": False}

    def test_from_job_ignores_the_executing_process(self):
        base = FlowConfig(use_dsd=False, kernel=False)
        flow = FlowConfig.from_job({"use_dontcares": True}, base=base)
        assert flow.use_dsd is True
        assert flow.kernel is False  # not output-affecting: kept

    def test_zero_budget_in_a_job_means_none(self):
        flow = FlowConfig().apply({"time_budget": 0, "node_budget": 0})
        assert flow.time_budget is None and flow.node_budget is None

    def test_unknown_job_key_refused(self):
        with pytest.raises(ValueError, match="kernel"):
            FlowConfig().apply({"kernel": False})

    def test_engine_memo_tag_is_the_output_key(self):
        flow = FlowConfig(use_dsd=False, n_lut=4)
        engine = DecompositionEngine(flow)
        engine._submemo_setup()
        assert engine._submemo_cfg == flow.output_key()

    def test_engine_settings_override_the_flow(self):
        engine = DecompositionEngine(FlowConfig(use_dsd=False),
                                     use_dsd=None, n_lut=4)
        assert engine.flow.use_dsd is False and engine.flow.n_lut == 4


class TestCodeVersion:
    def test_same_in_a_fresh_interpreter(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.config import code_version; "
             "print(code_version())"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, check=True).stdout.strip()
        assert out == code_version()
        assert len(out) == 64 and int(out, 16) >= 0


if HAVE_HYPOTHESIS:
    _VALUES = {
        "n_lut": st.integers(2, 8),
        "max_candidates": st.integers(1, 40),
        "try_candidates": st.integers(1, 12),
        "balanced_max_p": st.integers(2, 12),
        "time_budget": st.none() | st.floats(0.5, 1e4),
        "node_budget": st.none() | st.integers(1, 10**7),
        "kernel_max_vars": st.integers(0, 30),
        "kernel_tier1_max_vars": st.integers(0, 30),
        "kernel_symmetry_min_vars": st.integers(0, 30),
        "submemo_bytes": st.integers(0, 1 << 30),
        "recursion_limit": st.none() | st.integers(1000, 10**5),
    }

    def _value(name):
        field = next(f for f in dataclasses.fields(FlowConfig)
                     if f.name == name)
        if name in _VALUES:
            return _VALUES[name]
        assert field.type in ("bool", bool), name
        return st.booleans()

    @st.composite
    def flows(draw):
        return FlowConfig(**{f.name: draw(_value(f.name))
                             for f in dataclasses.fields(FlowConfig)})

    class TestDerivedKeys:
        @settings(max_examples=300, deadline=None)
        @given(base=flows(), data=st.data())
        def test_keys_move_with_output_fields_only(self, base, data):
            name = data.draw(st.sampled_from(
                [f.name for f in dataclasses.fields(FlowConfig)]))
            changed = dataclasses.replace(
                base, **{name: data.draw(_value(name))})
            assume(changed != base)
            before, after = derived_keys(base), derived_keys(changed)
            if name in OUTPUT_FIELDS:
                for old, new in zip(before, after):
                    assert old != new, name
            else:
                assert before == after, name


class TestLiveBugRegression:
    """A DSD-on result must never answer a DSD-off run."""

    def test_map_no_dsd_misses_a_warm_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["map", "rd84", "--cache-dir", cache_dir]) == 0
        assert "9 CLBs" in capsys.readouterr().out
        assert main(["map", "rd84", "--no-dsd",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "8 CLBs" in out and "(cached)" not in out
        # ... and the DSD-off entry now serves DSD-off runs.
        assert main(["map", "rd84", "--no-dsd",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "8 CLBs" in out and "(cached)" in out

    def test_batch_dsd_off_misses_a_warm_cache(self, tmp_path, capsys,
                                               monkeypatch):
        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "rows.jsonl")
        assert main(["batch", "rd84", "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0
        monkeypatch.setenv("REPRO_DSD", "off")
        assert main(["batch", "rd84", "--jobs", "1",
                     "--cache-dir", cache_dir, "--out", out]) == 0
        with open(out) as handle:
            row = json.loads(handle.readline())
        assert row["cache_hit"] is False
        assert row["result"]["clb_count"] == 8

    def test_daemon_started_dsd_off_misses_a_warm_cache(
            self, tmp_path, capsys, monkeypatch):
        from tests.serve.conftest import start_daemon
        assert main(["map", "rd84",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        monkeypatch.setenv("REPRO_DSD", "off")
        harness = start_daemon(tmp_path, workers=1)
        try:
            final = harness.ask({"source": "rd84"})[0]
        finally:
            harness.stop()
        assert final["status"] == "ok"
        assert final["cache_hit"] is False
        assert final["result"]["clb_count"] == 8


class TestLayering:
    def test_engine_run_does_not_import_the_runtime(self):
        code = ("import sys\n"
                "from repro.bench.registry import benchmark\n"
                "from repro.core.api import map_to_xc3000\n"
                "map_to_xc3000(benchmark('rd84'))\n"
                "loaded = [m for m in sys.modules\n"
                "          if m.split('.')[:2] == ['repro', 'runtime']]\n"
                "print(loaded)\n")
        # No memo directory: the persistent memo layer is the runtime's
        # ResultCache and would import it by design.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        assert out == "[]"

    def test_engine_packages_read_only_store_locations(self):
        """The engine's settings come from FlowConfig.from_env alone;
        the engine packages read the environment only for the sub-ISF
        memo store's location."""
        root = os.path.join(SRC, "repro")
        readers = []
        for package in ("kernel", "decomp", "symmetry", "core",
                        "mapping"):
            for dirpath, _, files in os.walk(os.path.join(root, package)):
                for name in files:
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, name)
                    with open(path) as handle:
                        for line in handle:
                            if "os.environ" in line:
                                readers.append((name, line.strip()))
        allowed = ("SUBMEMO_DIR_ENV", "REPRO_CACHE_DIR",
                   "SUBMEMO_REMOTE_ENV")
        assert readers and all(
            any(token in line for token in allowed)
            for _, line in readers), readers
