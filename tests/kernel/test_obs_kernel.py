"""Observability wiring for the kernel: counters, metrics, fallbacks."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.bdd.symmetry import equivalence_symmetric_in, symmetric_in
from repro.bench.registry import benchmark
from repro.boolfunc.spec import ISF
from repro.config import FlowConfig
from repro.core.api import map_to_xc3000
from repro.decomp import cover
from repro.kernel import (
    STATS,
    KernelStats,
    kernel_enabled,
    reset_kernel_stats,
)
from repro.obs.metrics import profile_report, run_metrics
from repro.obs.profiler import (
    PhaseProfiler,
    activate_profiler,
    record_event,
)


class TestKernelStats:
    def test_record_and_snapshot(self):
        stats = KernelStats()
        stats.record_hit("classes_for", 0.25)
        stats.record_hit("classes_for", 0.25)
        stats.record_miss("symmetry_assign")
        snap = stats.snapshot()
        assert snap["kernel_hits"] == 2
        assert snap["kernel_misses"] == 1
        assert snap["ops"]["classes_for"]["hits"] == 2
        assert snap["ops"]["classes_for"]["time_s"] == 0.5
        assert snap["ops"]["symmetry_assign"]["misses"] == 1

    def test_reset(self):
        STATS.record_hit("x", 1.0)
        reset_kernel_stats()
        assert STATS.hits == 0 and not STATS.op_time

    def test_env_switches(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        assert not kernel_enabled()
        monkeypatch.setenv("REPRO_KERNEL", "on")
        assert kernel_enabled()
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", "9")
        assert FlowConfig.from_env().kernel_max_vars == 9
        monkeypatch.setenv("REPRO_KERNEL_MAX_VARS", "junk")
        assert FlowConfig.from_env().kernel_max_vars == 24


class TestMetricsDocument:
    def test_kernel_block_and_fallback_counter(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "on")
        result = map_to_xc3000(benchmark("rd73"))
        doc = run_metrics(command="map", source="rd73",
                          stats=result.stats)
        assert doc["schema_version"] == 1
        assert doc["kernel"]["kernel_hits"] > 0
        assert doc["kernel"]["enabled"] is True
        assert "classes_for" in doc["kernel"]["ops"]
        assert doc["engine"]["exact_cover_fallbacks"] == 0

    def test_profile_report_mentions_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "on")
        result = map_to_xc3000(benchmark("rd73"))
        report = profile_report(result.stats)
        assert "kernel (word-parallel, on" in report
        assert "classes_for" in report

    def test_duck_typed_stats_tolerated(self):
        class Stats:
            def phase_profile(self):
                return {}
        report = profile_report(Stats())
        assert "kernel" not in report

    def test_off_run_reports_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        result = map_to_xc3000(benchmark("rd53"))
        assert result.stats.kernel_metrics["enabled"] is False
        assert result.stats.kernel_metrics["kernel_hits"] == 0
        assert "kernel (word-parallel, off" in profile_report(result.stats)


class TestExactCoverFallback:
    def test_event_recorded_on_budget_exhaustion(self, monkeypatch):
        rng = random.Random(5)
        bdd = BDD(4)
        variables = list(range(4))
        lo_bits = [0 if rng.random() < 0.5 else rng.randint(0, 1)
                   for _ in range(16)]
        hi_bits = [max(lo_bits[k], rng.randint(0, 1)) for k in range(16)]
        isf = ISF.create(bdd,
                         bdd.from_truth_table(lo_bits, variables),
                         bdd.from_truth_table(hi_bits, variables))
        monkeypatch.setattr(cover, "exact_cover",
                            lambda *args, **kwargs: None)
        profiler = PhaseProfiler()
        with activate_profiler(profiler):
            cover.classes_for_exact(bdd, [isf], (0, 1))
        assert profiler.events["exact_cover_fallback"] == 1

    def test_record_event_noop_without_profiler(self):
        record_event("exact_cover_fallback")  # must not raise

    def test_profiler_event_counter(self):
        profiler = PhaseProfiler()
        profiler.event("thing")
        profiler.event("thing", 2)
        assert profiler.events == {"thing": 3}


class TestMemoisedSymmetryChecks:
    def brute_symmetric(self, bdd, f, i, j, pairs):
        (ai, aj), (bi, bj) = pairs
        return bdd.restrict(bdd.restrict(f, i, ai), j, aj) == \
            bdd.restrict(bdd.restrict(f, i, bi), j, bj)

    def test_symmetric_in_memoised(self):
        bdd = BDD(4)
        f = bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(1)),
                         bdd.var(2))
        assert symmetric_in(bdd, f, 0, 1) == \
            self.brute_symmetric(bdd, f, 0, 1, ((0, 1), (1, 0)))
        hits_before = bdd._cache_hits
        # Second call (and the swapped pair) must hit the computed table.
        symmetric_in(bdd, f, 0, 1)
        symmetric_in(bdd, f, 1, 0)
        assert bdd._cache_hits >= hits_before + 2

    def test_equivalence_symmetric_in_memoised(self):
        bdd = BDD(4)
        f = bdd.apply_xnor(bdd.var(1), bdd.var(3))
        assert equivalence_symmetric_in(bdd, f, 1, 3) == \
            self.brute_symmetric(bdd, f, 1, 3, ((0, 0), (1, 1)))
        hits_before = bdd._cache_hits
        equivalence_symmetric_in(bdd, f, 3, 1)
        assert bdd._cache_hits >= hits_before + 1

    def test_memoised_results_correct_randomised(self):
        rng = random.Random(8)
        bdd = BDD(4)
        variables = list(range(4))
        for _ in range(10):
            table = [rng.randint(0, 1) for _ in range(16)]
            f = bdd.from_truth_table(table, variables)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert symmetric_in(bdd, f, i, j) == \
                        self.brute_symmetric(bdd, f, i, j,
                                             ((0, 1), (1, 0)))
                    assert equivalence_symmetric_in(bdd, f, i, j) == \
                        self.brute_symmetric(bdd, f, i, j,
                                             ((0, 0), (1, 1)))
