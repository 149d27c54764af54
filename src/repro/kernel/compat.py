"""Word-parallel compatible-class computation (Roth/Karp hot path).

Mirrors :func:`repro.decomp.compat.compute_classes` *exactly* — same
dedup insertion order, same onset-keyed seeds, same first-fit-decreasing
greedy cover, same class numbering — but over packed truth tables
instead of BDD nodes:

* vertex cofactor extraction is one reshape/moveaxis/slice per output
  instead of ``2**p * outputs`` chains of ``bdd.restrict``;
* interval compatibility, running intersection and the cover's guards
  are bignum AND/OR over ``(lo, hi)`` mask pairs;
* only the few *merged* class intervals (and narrowed outputs) are
  converted back to BDD nodes, through the canonical
  :func:`repro.kernel.convert.bools_to_bdd`, so the resulting
  ``Classes`` carries exactly the node ids the BDD path would produce.

Every entry point returns ``None`` when the kernel is disabled or the
live support exceeds :func:`repro.kernel.kernel_max_vars`; callers then
take the BDD path (and the miss is counted).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.boolfunc.spec import ISF
from repro.faults import fault_point
from repro.kernel import (
    AVAILABLE,
    DEFAULT_COST_FACTOR,
    STATS,
    kernel_enabled,
    tier_for,
)
from repro.config import current
from repro.obs.profiler import profile_phase

if AVAILABLE:
    import numpy as np

    from repro.kernel.bitset import mask_rows, mask_to_bools, pack_rows
    from repro.kernel.bitset2 import words_rows
    from repro.kernel.convert import (
        TableMismatchError,
        _conversion_cache,
        bdd_to_bools,
        bools_to_bdd,
        cache_put,
    )

#: A vertex's cofactor vector: ``[(lo_mask, hi_mask)] * outputs``.
#: Masks are bignums (tier 1) or :class:`repro.kernel.bitset2.Words`
#: (tier 2); both carry the operator set the cover relies on.
MaskVector = List[Tuple[int, int]]

#: Deferred mask->ISF conversion of the merged class intervals.
MergedThunk = Callable[[], List[List[ISF]]]


def tier2_profitable(bdd, outputs: Sequence[ISF], num_live: int) -> bool:
    """Should a tier-2-wide call actually go word-parallel?

    BDD-path cost scales with the operands' node counts; table cost
    scales with ``2**num_live`` regardless of sparsity.  Wide-but-sparse
    functions (small BDDs) therefore stay on the BDD path — serving them
    densely would be orders of magnitude *slower* — while wide dense
    functions (the 16-var cliff the benchmarks show) go tier 2.
    ``REPRO_KERNEL_COST_MODEL=off`` always serves (test lever).
    """
    if not current().kernel_cost_model:
        return True
    roots = set()
    for isf in outputs:
        roots.add(isf.lo)
        roots.add(isf.hi)
    cache = _conversion_cache(bdd)
    key = ("nodes", tuple(sorted(roots)))
    nodes = cache.get(key)
    if nodes is None:
        nodes = bdd.node_count(*roots)
        cache_put(cache, key, nodes)
    words = 1 << max(0, num_live - 6)
    return nodes * DEFAULT_COST_FACTOR >= words * max(1, len(outputs))


def _fit_variables(bdd, outputs: Sequence[ISF], bound: Sequence[int],
                   op: str) -> Optional[Tuple[Tuple[int, ...], int]]:
    """``(table_vars, tier)`` for the call, or ``None`` (miss counted)
    when the kernel is off, the live support is too wide, or a tier-2
    width is predicted cheaper on the BDD path."""
    if not kernel_enabled():
        return None
    live = set(bound)
    for isf in outputs:
        live |= bdd.support(isf.lo)
        if isf.hi != isf.lo:
            live |= bdd.support(isf.hi)
    tier = tier_for(len(live))
    if tier == 0 or (tier == 2
                     and not tier2_profitable(bdd, outputs, len(live))):
        STATS.record_miss(op)
        return None
    fault_point("kernel.dispatch")  # chaos site: armed kernel hand-off
    return tuple(sorted(live)), tier


def _as_bools(mask, nbits: int):
    """Boolean table of a tier-1 bignum or tier-2 ``Words`` mask."""
    if isinstance(mask, int):
        return mask_to_bools(mask, nbits)
    return mask.to_bools()


def _vertex_masks(bdd, outputs: Sequence[ISF], bound: Sequence[int],
                  table_vars: Tuple[int, ...], tier: int
                  ) -> List[MaskVector]:
    """Per-vertex cofactor mask vectors, vertex order = ``vertex_bits``.

    Row ``v`` of each output's sliced table is the cofactor of bound-set
    vertex ``v`` over the free variables (MSB-first on both sides, with
    ``bound[0]`` the most significant vertex bit — the same convention
    as :func:`repro.decomp.compat.vertex_cofactors`).
    """
    nvars = len(table_vars)
    p = len(bound)
    positions = [table_vars.index(b) for b in bound]
    bound_t = tuple(bound)
    cache = _conversion_cache(bdd)

    def rows(node: int) -> list:
        # Keyed alongside the bdd_to_bools entries (5-tuples vs their
        # 2-tuples); re-scored bound sets reuse the packed rows.
        key = ("rows", node, table_vars, bound_t, tier)
        hit = cache.get(key)
        if hit is not None:
            return hit
        arr = bdd_to_bools(bdd, node, table_vars).reshape((2,) * nvars)
        flat = np.moveaxis(arr, positions, range(p)).reshape(1 << p, -1)
        if tier == 1:
            packed = mask_rows(flat)
            nbytes = (1 << p) * max(1, flat.shape[1] >> 3)
        else:
            matrix = pack_rows(flat)
            packed = words_rows(matrix, flat.shape[1])
            nbytes = matrix.nbytes
        cache_put(cache, key, packed, nbytes)
        return packed

    per_output: List[Tuple[List[int], List[int]]] = []
    for isf in outputs:
        lo_rows = rows(isf.lo)
        hi_rows = lo_rows if isf.hi == isf.lo else rows(isf.hi)
        per_output.append((lo_rows, hi_rows))
    return [[(lo[v], hi[v]) for lo, hi in per_output]
            for v in range(1 << p)]


def _compatible(a: MaskVector, b: MaskVector) -> bool:
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if alo & ~bhi or blo & ~ahi:
            return False
    return True


def _intersect(a: MaskVector, b: MaskVector) -> Optional[MaskVector]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo = alo | blo
        hi = ahi & bhi
        if lo & ~hi:
            return None
        out.append((lo, hi))
    return out


def _dedup(vectors: List[MaskVector]
           ) -> Tuple[List[MaskVector], List[List[int]], bool]:
    """First-occurrence dedup of the vertex cofactor vectors.

    Returns ``(unique_vectors, members, all_complete)`` — the partition
    the cover (and the incremental refinement in
    :mod:`repro.kernel.refine`) operates on.  Group order is by first
    occurrence, which equals ascending minimum member; members are
    appended in ascending vertex order.
    """
    rep_of: dict = {}
    unique_vectors: List[MaskVector] = []
    members: List[List[int]] = []
    all_complete = True
    for v, vec in enumerate(vectors):
        key = tuple(vec)
        if key in rep_of:
            members[rep_of[key]].append(v)
        else:
            rep_of[key] = len(unique_vectors)
            unique_vectors.append(vec)
            members.append([v])
            if all_complete and any(lo != hi for lo, hi in vec):
                all_complete = False
    return unique_vectors, members, all_complete


def _cover(vectors: List[MaskVector]
           ) -> Tuple[List[List[int]], List[int], List[MaskVector]]:
    """The clique cover of :func:`repro.decomp.compat._compute_classes`,
    step for step, over mask vectors.  Returns
    ``(classes, class_of, merged_mask_vectors)``."""
    unique_vectors, members, all_complete = _dedup(vectors)
    return _cover_from_partition(unique_vectors, members, all_complete,
                                 len(vectors))


def _cover_from_partition(unique_vectors: List[MaskVector],
                          members: List[List[int]], all_complete: bool,
                          num_vertices: int
                          ) -> Tuple[List[List[int]], List[int],
                                     List[MaskVector]]:
    """Clique cover over an already-deduplicated vertex partition."""
    if all_complete:
        pairs = sorted(zip(members, unique_vectors),
                       key=lambda pair: min(pair[0]))
        classes = [sorted(m) for m, _ in pairs]
        merged = [list(vec) for _, vec in pairs]
        class_of = [0] * num_vertices
        for c, vertices in enumerate(classes):
            for v in vertices:
                class_of[v] = c
        return classes, class_of, merged

    seed_of: dict = {}
    seed_members: List[List[int]] = []
    seed_intersection: List[MaskVector] = []
    for i, vec in enumerate(unique_vectors):
        lo_key = tuple(lo for lo, _ in vec)
        s = seed_of.get(lo_key)
        if s is None:
            seed_of[lo_key] = len(seed_members)
            seed_members.append(list(members[i]))
            seed_intersection.append(list(vec))
        else:
            seed_members[s].extend(members[i])
            # Cannot be None: intervals sharing a lo always intersect.
            seed_intersection[s] = _intersect(seed_intersection[s], vec)

    n = len(seed_members)
    if n > 1:
        degree = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if not _compatible(seed_intersection[i],
                                   seed_intersection[j]):
                    degree[i] += 1
                    degree[j] += 1
        order = sorted(range(n), key=lambda i: (-degree[i], i))
    else:
        order = list(range(n))

    clique_members: List[List[int]] = []
    clique_intersection: List[MaskVector] = []
    for i in order:
        vec = seed_intersection[i]
        placed = False
        for c in range(len(clique_members)):
            merged = _intersect(clique_intersection[c], vec)
            if merged is not None:
                clique_members[c].extend(seed_members[i])
                clique_intersection[c] = merged
                placed = True
                break
        if not placed:
            clique_members.append(list(seed_members[i]))
            clique_intersection.append(list(vec))

    pairs = sorted(zip(clique_members, clique_intersection),
                   key=lambda pair: min(pair[0]))
    classes = [sorted(m) for m, _ in pairs]
    merged = [inter for _, inter in pairs]
    class_of = [0] * num_vertices
    for c, vertices in enumerate(classes):
        for v in vertices:
            class_of[v] = c
    return classes, class_of, merged


def kernel_classes_for(bdd, outputs: Sequence[ISF], bound: Sequence[int]
                       ) -> Optional[Tuple[Tuple[int, ...], List[List[int]],
                                           List[int], "MergedThunk"]]:
    """Cofactors + clique cover; ``(bound, classes, class_of, thunk)``
    or ``None`` on fallback.

    ``thunk()`` converts the merged class intervals back to real
    (canonical) ISFs.  The conversion is deferred because the bulk of
    the callers — bound-set scoring — only read the class *counts*; the
    few callers that narrow or encode pay for it exactly once (see
    :class:`repro.decomp.compat.LazyClasses`).
    """
    fit = _fit_variables(bdd, outputs, bound, "classes_for")
    if fit is None:
        return None
    table_vars, tier = fit
    start = perf_counter()
    try:
        with profile_phase("cofactors"):
            vectors = _vertex_masks(bdd, outputs, bound, table_vars, tier)
        with profile_phase("clique_cover"):
            classes, class_of, merged_masks = _cover(vectors)
    except TableMismatchError:
        # Stale/shrunk ordering from the caller: degrade to the BDD
        # route instead of crashing the run.
        STATS.record_miss("classes_for")
        return None
    STATS.record_hit("classes_for", perf_counter() - start)
    bound_set = set(bound)
    free = [v for v in table_vars if v not in bound_set]

    def materialise() -> List[List[ISF]]:
        begin = perf_counter()
        nfree_bits = 1 << len(free)
        with profile_phase("clique_cover"):
            merged: List[List[ISF]] = []
            for vec in merged_masks:
                row = []
                for lo_mask, hi_mask in vec:
                    lo = bools_to_bdd(
                        bdd, _as_bools(lo_mask, nfree_bits), free)
                    hi = lo if hi_mask == lo_mask else bools_to_bdd(
                        bdd, _as_bools(hi_mask, nfree_bits), free)
                    row.append(ISF(lo, hi))
                merged.append(row)
        STATS.record_hit("merged_convert", perf_counter() - begin)
        return merged

    return tuple(bound), classes, class_of, materialise


def kernel_reduction_score(bdd, outputs: Sequence[ISF],
                           bound: Sequence[int]
                           ) -> Optional[Tuple[int, int, int]]:
    """The ranking score of :func:`repro.decomp.bound_set.reduction_score`
    without any BDD materialisation (class *counts* only)."""
    fit = _fit_variables(bdd, outputs, bound, "reduction_score")
    if fit is None:
        return None
    table_vars, tier = fit
    start = perf_counter()
    try:
        with profile_phase("cofactors"):
            vectors = _vertex_masks(bdd, outputs, bound, table_vars, tier)
    except TableMismatchError:
        STATS.record_miss("reduction_score")
        return None
    with profile_phase("clique_cover"):
        bound_set = set(bound)
        reduction = 0
        for k, isf in enumerate(outputs):
            inter = len(isf.support(bdd) & bound_set)
            if inter == 0:
                continue
            column = [[vec[k]] for vec in vectors]
            classes, _, _ = _cover(column)
            reduction += max(0, inter - _min_r(len(classes)))
        joint_classes, _, _ = _cover(vectors)
        joint_ncc = len(joint_classes)
        score = (-reduction, _min_r(joint_ncc), joint_ncc)
    STATS.record_hit("reduction_score", perf_counter() - start)
    return score


def _min_r(num_classes: int) -> int:
    # ceil(log2) without importing repro.decomp.compat (cycle).
    return max(0, (num_classes - 1).bit_length())


def kernel_assign_by_classes(bdd, outputs: Sequence[ISF],
                             classes) -> Optional[List[ISF]]:
    """The narrowing of :func:`repro.decomp.compat.assign_by_classes`:
    every vertex's cofactor is replaced by its class's merged interval.

    ``classes`` is a :class:`repro.decomp.compat.Classes` (duck-typed).
    The caller handles the all-complete early return.
    """
    merged_isfs = [isf for row in classes.merged for isf in row]
    fit = _fit_variables(bdd, list(outputs) + merged_isfs,
                         classes.bound, "assign_by_classes")
    if fit is None:
        return None
    table_vars, _ = fit
    nvars = len(table_vars)
    p = len(classes.bound)
    bound_set = set(classes.bound)
    positions = [table_vars.index(b) for b in classes.bound]
    free = [v for v in table_vars if v not in bound_set]
    free_set = set(free)
    # Merged intervals normally live over the free variables only; a
    # hand-built Classes violating that goes down the BDD path instead.
    for isf in merged_isfs:
        if (bdd.support(isf.lo) | bdd.support(isf.hi)) - free_set:
            STATS.record_miss("assign_by_classes")
            return None
    start = perf_counter()
    nfree_bits = 1 << (nvars - p)

    new_outputs = []
    for k in range(len(outputs)):
        lo_rows = np.empty((1 << p, nfree_bits), dtype=bool)
        hi_rows = np.empty((1 << p, nfree_bits), dtype=bool)
        for c, vertices in enumerate(classes.classes):
            merged = classes.merged[c][k]
            try:
                lo_tab = bdd_to_bools(bdd, merged.lo, free)
                hi_tab = lo_tab if merged.hi == merged.lo else \
                    bdd_to_bools(bdd, merged.hi, free)
            except TableMismatchError:
                STATS.record_miss("assign_by_classes")
                return None
            idx = np.asarray(vertices)
            lo_rows[idx] = lo_tab
            hi_rows[idx] = hi_tab
        # Undo the bound-first axis layout, back to table_vars order.
        lo_arr = np.moveaxis(lo_rows.reshape((2,) * nvars),
                             range(p), positions).reshape(-1)
        hi_arr = np.moveaxis(hi_rows.reshape((2,) * nvars),
                             range(p), positions).reshape(-1)
        lo = bools_to_bdd(bdd, lo_arr, table_vars)
        hi = lo if np.array_equal(lo_arr, hi_arr) else \
            bools_to_bdd(bdd, hi_arr, table_vars)
        new_outputs.append(ISF.create(bdd, lo, hi))
    STATS.record_hit("assign_by_classes", perf_counter() - start)
    return new_outputs
