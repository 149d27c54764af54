"""Kernel dispatch must degrade, not crash, on stale orderings.

A caller can hand the kernel a *DC-shrunk* variable ordering — a
support list computed from a narrowed interval that no longer covers
the raw node being converted.  ``bdd_to_bools`` reports that as
:class:`TableMismatchError`; every dispatch site catches it, records a
miss and falls back to the BDD route, so the run completes with
identical results.
"""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.bound_set import greedy_bound_set, rank_bound_sets
from repro.decomp.compat import classes_for
from repro.kernel import STATS, reset_kernel_stats
from repro.kernel import compat as kcompat
from repro.kernel import refine as krefine
from repro.kernel.compat import (
    kernel_classes_for,
    kernel_reduction_score,
)
from repro.kernel.convert import TableMismatchError, bdd_to_bools


def random_isfs(bdd, rng, n, m):
    out = []
    for _ in range(m):
        table = [rng.randint(0, 1) for _ in range(1 << n)]
        out.append(ISF.complete(bdd.from_truth_table(table,
                                                     list(range(n)))))
    return out


class TestConvertRaisesTyped:
    def test_shrunk_ordering_raises_table_mismatch(self):
        bdd = BDD(4)
        f = bdd.apply_or(bdd.var(0), bdd.var(3))
        # A DC-shrunk support that dropped variable 3.
        with pytest.raises(TableMismatchError):
            bdd_to_bools(bdd, f, [0, 1])

    def test_is_a_value_error(self):
        # Pre-existing callers catching ValueError keep working.
        assert issubclass(TableMismatchError, ValueError)


class TestDispatchDegrades:
    def _poison(self, monkeypatch):
        def boom(*args, **kwargs):
            raise TableMismatchError("stale ordering")
        monkeypatch.setattr(kcompat, "_vertex_masks", boom)

    def test_classes_for_returns_none_and_counts_miss(self, monkeypatch):
        bdd = BDD(6)
        rng = random.Random(31)
        outputs = random_isfs(bdd, rng, 6, 2)
        reset_kernel_stats()
        self._poison(monkeypatch)
        assert kernel_classes_for(bdd, outputs, (0, 1, 2)) is None
        assert STATS.op_misses.get("classes_for", 0) == 1
        # The public wrapper silently takes the BDD route.
        joint = classes_for(bdd, outputs, (0, 1, 2))
        assert joint.ncc >= 1

    def test_reduction_score_returns_none_and_counts_miss(
            self, monkeypatch):
        bdd = BDD(6)
        rng = random.Random(37)
        outputs = random_isfs(bdd, rng, 6, 2)
        reset_kernel_stats()
        self._poison(monkeypatch)
        assert kernel_reduction_score(bdd, outputs, (0, 1, 2)) is None
        assert STATS.op_misses.get("reduction_score", 0) == 1


class TestPartitionCacheDegrades:
    """Mid-flight staleness inside the incremental scorer degrades to
    from-scratch scoring with identical results."""

    def _reference(self, bdd, outputs, variables, p):
        import os
        old = os.environ.get("REPRO_KERNEL")
        os.environ["REPRO_KERNEL"] = "off"
        try:
            ranked = rank_bound_sets(bdd, outputs, variables, p)
            greedy = greedy_bound_set(bdd, outputs, variables, p)
        finally:
            if old is None:
                del os.environ["REPRO_KERNEL"]
            else:
                os.environ["REPRO_KERNEL"] = old
        return ranked, greedy

    def test_rank_and_greedy_survive_stale_cache(self, monkeypatch):
        bdd = BDD(7)
        rng = random.Random(41)
        outputs = random_isfs(bdd, rng, 7, 2)
        variables = list(range(7))
        ref_ranked, ref_greedy = self._reference(bdd, outputs,
                                                 variables, 3)

        def boom(self, bound):
            raise TableMismatchError("stale ordering")
        monkeypatch.setattr(krefine.PartitionCache, "partition_for",
                            boom)
        reset_kernel_stats()
        ranked = rank_bound_sets(bdd, outputs, variables, 3)
        greedy = greedy_bound_set(bdd, outputs, variables, 3)
        assert ranked == ref_ranked
        assert greedy == ref_greedy
        assert STATS.op_misses.get("reduction_score", 0) >= 1
        assert STATS.op_misses.get("classes_for", 0) >= 1
        assert STATS.scratch > 0
