"""Word-parallel truth-table kernel for the decomposition hot paths.

The ``--profile`` data in ``docs/PERFORMANCE.md`` shows the engine
spending most of its time in three phases — ``dc_step1_symmetry``,
``cofactors`` and ``clique_cover`` — all of which walk the pure-Python
ROBDD store one restrict/ITE call at a time, even though at the
recursion depths where they fire the live support is small.  This
package re-expresses those phases over *packed truth tables*
(``numpy.uint64`` words, 64 minterms per word):

* :mod:`repro.kernel.bitset` — the packed representation and the
  pack/unpack primitives (:class:`~repro.kernel.bitset.Bits`, row
  packing, mask integers);
* :mod:`repro.kernel.convert` — lossless, canonical ``BDD <-> bitset``
  conversion (equal functions convert to byte-identical tables and
  back to the *same* node ids, which is what makes the kernel results
  bit-identical to the BDD path);
* :mod:`repro.kernel.compat` — bound-set vertex cofactor extraction as
  strided slicing plus the ISF compatibility / running-intersection /
  greedy-cover pipeline as bitwise AND/OR over ``(lo, hi)`` mask pairs;
* :mod:`repro.kernel.symmetry` — (non)equivalence symmetry checks and
  the ``make_symmetric`` narrowing as shifted mask algebra against
  precomputed cofactor-plane selectors.

Dispatch is transparent and *tiered*: the call sites in
:mod:`repro.decomp.compat`, :mod:`repro.decomp.bound_set` and
:mod:`repro.symmetry.groups` route through the kernel when the live
support fits ``FlowConfig.kernel_max_vars`` (default 24, override with
``REPRO_KERNEL_MAX_VARS``; see :mod:`repro.config`) and fall back to the
BDD path otherwise.  Within the kernel, supports up to
``FlowConfig.kernel_tier1_max_vars`` (default 16) use Python bignum
masks (tier 1 — CPython's C bignum ops beat numpy call overhead on
small tables) and wider supports use
multi-word ``numpy.uint64`` arrays (tier 2, :mod:`repro.kernel.bitset2`)
— both tiers run the *same* cover/predicate code, so results are
bit-identical by construction.  ``REPRO_KERNEL=off`` disables the
kernel entirely (escape hatch; the differential test suite in
``tests/kernel/`` proves all paths produce identical results).

The symmetry ops additionally apply a *measured crossover*
(``FlowConfig.kernel_symmetry_min_vars``, default 16): below it the BDD path
is faster (the table<->BDD conversion at the wrapper boundary dominates
the predicate algebra), so dispatch declines without counting a miss.

Every dispatch decision is counted in a module-level
:class:`KernelStats` (reset per engine run); the snapshot lands in the
versioned metrics document under ``"kernel"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.config import DEFAULT_MAX_VARS, DEFAULT_TIER1_MAX_VARS, current

try:  # numpy is a declared dependency, but the BDD path works without it.
    import numpy  # noqa: F401
    AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only on broken installs
    AVAILABLE = False

#: Below-crossover profitability factor for the symmetry ops: a
#: sub-``min_vars`` support is still served word-parallel when
#: ``node_count * factor >= 2**num_live`` (table bits).  Dense small
#: functions (a 10-var random table is ~400 joint nodes against 1024
#: bits) win on masks — measured 1.2-1.3x over the BDD path — while
#: sparse ones (where the BDD path is near-free) keep declining.
DEFAULT_SYMMETRY_DENSITY_FACTOR = 3

#: Tier-2 profitability factor: a tier-2 dispatch is served only when
#: ``node_count * DEFAULT_COST_FACTOR >= table_words * num_outputs``.
#: BDD-path cost scales with the operands' node counts while table cost
#: scales with 2**n regardless of sparsity, so wide-but-sparse functions
#: (duke2's 22-input outputs are ~727 joint nodes) stay on the BDD path
#: where they are orders of magnitude cheaper, and wide dense functions
#: (where the BDD path is the catastrophe the benchmarks show) go word-
#: parallel.  64 approximates the measured per-node/per-word cost ratio
#: (~0.24 ms/knode BDD vs ~5.5 us/kword numpy on 20-var scoring).
DEFAULT_COST_FACTOR = 64


def kernel_enabled() -> bool:
    """Is kernel dispatch enabled?  (numpy present and the flow in
    force has ``kernel`` set; ``REPRO_KERNEL=off`` clears it.)"""
    return AVAILABLE and current().kernel


def tier_for(num_live_vars: int) -> int:
    """Kernel tier serving a live support: ``1`` (bignum masks), ``2``
    (numpy word arrays) or ``0`` (too wide — BDD fallback)."""
    flow = current()
    if num_live_vars <= flow.kernel_tier1_max_vars:
        return 1
    if num_live_vars <= flow.kernel_max_vars:
        return 2
    return 0


@dataclass
class KernelStats:
    """Dispatch counters and per-operation kernel time.

    ``hits`` counts calls served by the kernel, ``misses`` calls that
    fell back to the BDD path while the kernel was enabled (support too
    wide).  ``ops`` breaks hits and wall time down by operation
    (``classes_for``, ``reduction_score``, ``assign_by_classes``,
    ``symmetry_assign``, ``symmetry_groups``).
    """

    hits: int = 0
    misses: int = 0
    #: Bound-set scores recomputed from scratch (full ``classes_for``)
    #: because the incremental partition refinement could not serve.
    scratch: int = 0
    op_time: Dict[str, float] = field(default_factory=dict)
    op_hits: Dict[str, int] = field(default_factory=dict)
    op_misses: Dict[str, int] = field(default_factory=dict)

    def record_hit(self, op: str, seconds: float) -> None:
        self.hits += 1
        self.op_hits[op] = self.op_hits.get(op, 0) + 1
        self.op_time[op] = self.op_time.get(op, 0.0) + seconds

    def record_miss(self, op: str) -> None:
        self.misses += 1
        self.op_misses[op] = self.op_misses.get(op, 0) + 1

    def record_scratch(self) -> None:
        self.scratch += 1

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form for the metrics document (additive, schema 1)."""
        ops = {}
        for op in sorted(set(self.op_hits) | set(self.op_misses)):
            ops[op] = {
                "time_s": round(self.op_time.get(op, 0.0), 6),
                "hits": self.op_hits.get(op, 0),
                "misses": self.op_misses.get(op, 0),
            }
        flow = current()
        return {
            "enabled": AVAILABLE and flow.kernel,
            "max_vars": flow.kernel_max_vars,
            "tier1_max_vars": flow.kernel_tier1_max_vars,
            "symmetry_min_vars": flow.kernel_symmetry_min_vars,
            "cost_model": flow.kernel_cost_model,
            "kernel_hits": self.hits,
            "kernel_misses": self.misses,
            "kernel_refine": self.op_hits.get("kernel_refine", 0),
            "classes_from_scratch": self.scratch,
            "ops": ops,
        }


#: Module-level stats instance the dispatch sites report into (reset per
#: engine run by DecompositionEngine.run).
STATS = KernelStats()


def reset_kernel_stats() -> None:
    """Zero the dispatch counters (engine does this at run start)."""
    STATS.hits = 0
    STATS.misses = 0
    STATS.scratch = 0
    STATS.op_time.clear()
    STATS.op_hits.clear()
    STATS.op_misses.clear()


def kernel_metrics() -> Dict[str, Any]:
    """Snapshot of the current dispatch counters."""
    return STATS.snapshot()


__all__ = [
    "AVAILABLE",
    "DEFAULT_COST_FACTOR",
    "DEFAULT_MAX_VARS",
    "DEFAULT_SYMMETRY_DENSITY_FACTOR",
    "DEFAULT_TIER1_MAX_VARS",
    "KernelStats",
    "STATS",
    "kernel_enabled",
    "kernel_metrics",
    "reset_kernel_stats",
    "tier_for",
]
