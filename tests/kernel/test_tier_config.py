"""Tier configuration under degenerate env overrides and CLI precedence.

``FlowConfig.from_env`` parses the kernel knobs; ``tier_for`` must
honour ``0 <= tier1 <= max`` for *any* environment:
negative caps clamp to 0 (kernel never serves — the narrowest reading
of what the user asked for), unparsable values fall back to defaults,
and a tier-1 override above the overall cap is clamped down, never up.
"""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

from repro.cli import main
from repro.config import FlowConfig
from repro.kernel import DEFAULT_MAX_VARS, DEFAULT_TIER1_MAX_VARS, tier_for


def kernel_max_vars():
    return FlowConfig.from_env().kernel_max_vars


def kernel_tier1_max_vars():
    return FlowConfig.from_env().kernel_tier1_max_vars


class TestDegenerateOverrides:
    @pytest.mark.parametrize("raw,expected", [
        ("-5", 0), ("-1", 0), ("0", 0), ("7", 7),
        ("garbage", DEFAULT_MAX_VARS), ("", DEFAULT_MAX_VARS),
        ("  12  ", 12),
    ])
    def test_max_vars_clamp(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", raw)
        assert kernel_max_vars() == expected

    def test_tier1_above_max_clamps_down(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", "8")
        monkeypatch.setenv("REPRO_KERNEL_TIER1_MAX_VARS", "99")
        assert kernel_tier1_max_vars() == 8
        assert tier_for(8) == 1
        assert tier_for(9) == 0

    def test_negative_tier1_forces_tier2(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER1_MAX_VARS", "-3")
        assert kernel_tier1_max_vars() == 0
        assert tier_for(1) == 2

    def test_negative_max_disables_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", "-7")
        for n in (1, 5, 16, 24):
            assert tier_for(n) == 0

    def test_unparsable_tier1_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER1_MAX_VARS", "four")
        assert kernel_tier1_max_vars() == DEFAULT_TIER1_MAX_VARS


if HAVE_HYPOTHESIS:
    class TestTierForProperties:
        # hypothesis cannot use function-scoped monkeypatch; drive the
        # environment directly instead.
        @settings(max_examples=200, deadline=None)
        @given(max_raw=st.integers(-40, 40),
               tier1_raw=st.integers(-40, 40),
               n=st.integers(0, 48))
        def test_tier_boundaries(self, max_raw, tier1_raw, n):
            import os
            old = {k: os.environ.get(k)
                   for k in ("REPRO_KERNEL_MAX_VARS",
                             "REPRO_KERNEL_TIER1_MAX_VARS")}
            os.environ["REPRO_KERNEL_MAX_VARS"] = str(max_raw)
            os.environ["REPRO_KERNEL_TIER1_MAX_VARS"] = str(tier1_raw)
            try:
                max_vars = kernel_max_vars()
                tier1 = kernel_tier1_max_vars()
                assert 0 <= tier1 <= max_vars
                assert max_vars == max(0, max_raw)
                tier = tier_for(n)
                if n <= tier1:
                    assert tier == 1
                elif n <= max_vars:
                    assert tier == 2
                else:
                    assert tier == 0
            finally:
                for key, value in old.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value


class TestCliPrecedence:
    """The CLI lays its flags over the environment's flow without
    writing the environment; the run's metrics report what it used."""

    def _kernel_block(self, tmp_path, argv):
        import json
        out = str(tmp_path / "m.json")
        assert main(argv + ["--metrics-out", out]) == 0
        with open(out) as handle:
            return json.load(handle)["kernel"]

    def test_cli_flag_beats_env(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", "4")
        block = self._kernel_block(
            tmp_path, ["map", "rd73", "--kernel-max-vars", "20"])
        assert block["max_vars"] == 20
        import os
        assert os.environ["REPRO_KERNEL_MAX_VARS"] == "4"
        assert kernel_max_vars() == 4

    def test_env_used_without_flag(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", "6")
        block = self._kernel_block(tmp_path, ["map", "rd73"])
        assert block["max_vars"] == 6
        assert kernel_max_vars() == 6

    def test_negative_cli_value_is_a_clean_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_MAX_VARS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["map", "rd73", "--kernel-max-vars", "-5"])
        assert "--kernel-max-vars" in str(exc.value)
        assert "REPRO_KERNEL_MAX_VARS" not in __import__("os").environ

    def test_no_dsd_flag_leaves_env_alone(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_DSD", raising=False)
        assert main(["map", "rd73", "--no-dsd"]) == 0
        import os
        assert "REPRO_DSD" not in os.environ
        assert FlowConfig.from_env().use_dsd
