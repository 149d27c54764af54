"""Don't-care assignment for symmetry maximisation (paper step 1).

The difficulty the paper points out: assigning don't cares to create
symmetry in ``(x_i, x_j)`` can destroy *potential* symmetry in another
pair ``(x_j, x_k)``.  Following the ED&TC'97 heuristic we therefore grow
*symmetry groups* greedily with verification and rollback:

1. compute all potentially symmetric pairs;
2. repeatedly try to extend a group by one variable (or merge two
   groups), preferring the extension that keeps the most other pairs
   potentially symmetric;
3. after each tentative assignment, verify that the whole group is still
   strongly symmetric — if not, roll back and blacklist the merge.

Both nonequivalence (T1) and equivalence (T2) symmetry are treated; a
group carries the kind it was built with (T1 groups are the ones the
bound-set search exploits directly).

The algorithms are generic over an *ops adapter* — either the BDD-domain
:class:`repro.symmetry.isf_symmetry.BddIsfOps` or the word-parallel
:class:`repro.kernel.symmetry.BitsIsfOps` — selected per call by
:func:`symmetry_domain`; both domains execute the identical decision
sequence, so the narrowed ISFs and groups are bit-identical (the
differential suite in ``tests/kernel/`` enforces this).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.config import current
from repro.kernel import STATS as KERNEL_STATS
from repro.symmetry.isf_symmetry import (
    BddIsfOps,
    SymmetryKind,
    potentially_symmetric,
)

try:
    from repro.kernel.symmetry import bits_domain
except ImportError:  # pragma: no cover - numpy unavailable
    bits_domain = None


def symmetry_domain(bdd: BDD, isfs: Sequence[ISF],
                    variables: Sequence[int], op: str
                    ) -> Tuple[Any, List[Any]]:
    """Pick the execution domain for a step-1 style computation.

    Returns ``(ops, handles)``: the kernel adapter with lifted handles
    when the live support of ``isfs`` plus ``variables`` fits the
    kernel's cap *and* clears the measured crossover
    (``FlowConfig.kernel_symmetry_min_vars`` — below it the BDD
    path usually wins because the lift/lower conversion dominates,
    unless the operands are dense enough that per-node BDD cost rivals
    the packed table; see
    :data:`repro.kernel.DEFAULT_SYMMETRY_DENSITY_FACTOR`), otherwise
    the BDD adapter with the ISFs unchanged.  Misses are counted under
    ``op``; declining below the crossover is not a miss.
    """
    if bits_domain is not None:
        domain = bits_domain(bdd, isfs, variables, op,
                             min_vars=current().kernel_symmetry_min_vars)
        if domain is not None:
            return domain
    return BddIsfOps(bdd), list(isfs)


def isf_symmetry_groups(bdd: BDD, isf: ISF,
                        variables: Sequence[int],
                        kind: SymmetryKind = SymmetryKind.NONEQUIVALENCE
                        ) -> List[List[int]]:
    """Partition ``variables`` into groups that are *strongly* pairwise
    symmetric in the ISF (no assignment performed)."""
    ops, handles = symmetry_domain(bdd, [isf], variables,
                                   "symmetry_groups")
    start = perf_counter()
    groups = _symmetry_groups(ops, handles[0], variables, kind)
    if ops.domain == "kernel":
        KERNEL_STATS.record_hit("symmetry_groups", perf_counter() - start)
    return groups


def _symmetry_groups(ops: Any, f: Any, variables: Sequence[int],
                     kind: SymmetryKind) -> List[List[int]]:
    groups: List[List[int]] = []
    for var in variables:
        placed = False
        for group in groups:
            if all(ops.strongly_symmetric(f, g, var, kind)
                   for g in group):
                group.append(var)
                placed = True
                break
        if not placed:
            groups.append([var])
    return groups


def potential_pairs(bdd: BDD, isf: ISF, variables: Sequence[int],
                    kind: SymmetryKind = SymmetryKind.NONEQUIVALENCE
                    ) -> int:
    """Number of potentially symmetric pairs — a cheap indicator of how
    much the step-1 assignment could achieve on this function."""
    count = 0
    for a in range(len(variables)):
        for b in range(a + 1, len(variables)):
            if potentially_symmetric(bdd, isf, variables[a], variables[b],
                                     kind):
                count += 1
    return count


def _try_merge_ops(ops: Any, f: Any, group: List[int], var: int,
                   kind: SymmetryKind) -> Optional[Any]:
    """Assign don't cares so ``var`` joins ``group``; None on failure.

    The assignment is applied pairwise against every group member and
    then verified: all pairs of the extended group must end up strongly
    symmetric (a pairwise assignment can destroy an earlier one — the
    conflict the paper describes — in which case we report failure so the
    caller rolls back).
    """
    candidate = f
    for member in group:
        if not ops.potentially_symmetric(candidate, member, var, kind):
            return None
        candidate = ops.make_symmetric(candidate, member, var, kind)
    extended = group + [var]
    for i in range(len(extended)):
        for j in range(i + 1, len(extended)):
            if not ops.strongly_symmetric(candidate, extended[i],
                                          extended[j], kind):
                return None
    return candidate


def _assign_for_symmetry(ops: Any, f: Any, variables: Sequence[int],
                         kinds: Sequence[SymmetryKind],
                         max_pair_checks: int,
                         protected_groups: Sequence[Sequence[int]]
                         ) -> Tuple[Any, List[List[int]]]:
    """Domain-generic body of :func:`assign_for_symmetry`."""
    variables = [v for v in variables if v in ops.support(f)]
    if len(variables) < 2:
        return f, [[v] for v in variables]

    def protected_ok(candidate: Any) -> bool:
        for group in protected_groups:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if not ops.strongly_symmetric(
                            candidate, group[i], group[j],
                            SymmetryKind.NONEQUIVALENCE):
                        return False
        return True

    checks = 0
    for kind in kinds:
        # Greedy group growth for this symmetry kind.
        groups: List[List[int]] = [[v] for v in variables]
        changed = True
        while changed and checks < max_pair_checks:
            changed = False
            # Try to merge the two "closest" groups: pick the pair of
            # groups whose representative pair is potentially symmetric
            # and whose merge survives verification.
            for a in range(len(groups)):
                merged_into = None
                for b in range(a + 1, len(groups)):
                    checks += 1
                    if checks >= max_pair_checks:
                        break
                    if not ops.potentially_symmetric(
                            f, groups[a][0], groups[b][0], kind):
                        continue
                    candidate = f
                    ok = True
                    new_group = list(groups[a])
                    for var in groups[b]:
                        result = _try_merge_ops(ops, candidate, new_group,
                                                var, kind)
                        if result is None:
                            ok = False
                            break
                        candidate = result
                        new_group.append(var)
                    if ok and not protected_ok(candidate):
                        ok = False
                    if ok:
                        f = candidate
                        groups[a] = new_group
                        merged_into = b
                        changed = True
                        break
                if merged_into is not None:
                    del groups[merged_into]
                    break

    final_groups = _symmetry_groups(ops, f, variables,
                                    SymmetryKind.NONEQUIVALENCE)
    return f, final_groups


def assign_for_symmetry(bdd: BDD, isf: ISF, variables: Sequence[int],
                        kinds: Sequence[SymmetryKind] = (
                            SymmetryKind.NONEQUIVALENCE,
                            SymmetryKind.EQUIVALENCE),
                        max_pair_checks: int = 4000,
                        protected_groups: Sequence[Sequence[int]] = (),
                        ) -> Tuple[ISF, List[List[int]]]:
    """Assign don't cares to maximise symmetries (paper step 1).

    Returns the narrowed ISF and the resulting nonequivalence symmetry
    groups.  ``kinds`` selects which symmetry types are created, in
    priority order; ``max_pair_checks`` bounds the total pair evaluations
    so very wide functions stay cheap (the remaining pairs are then simply
    left unassigned — the procedure is a heuristic anyway).
    ``protected_groups`` lists variable groups whose strong symmetry must
    survive every accepted assignment (used to keep the common groups of a
    multi-output step intact — the compatibility requirement of the paper).
    """
    ops, handles = symmetry_domain(bdd, [isf], variables,
                                   "symmetry_assign")
    start = perf_counter()
    f, groups = _assign_for_symmetry(ops, handles[0], variables, kinds,
                                     max_pair_checks, protected_groups)
    result = ops.lower(f)
    if ops.domain == "kernel":
        KERNEL_STATS.record_hit("symmetry_assign", perf_counter() - start)
    return result, groups


def _assign_for_symmetry_multi(ops: Any, handles: List[Any],
                               variables: Sequence[int],
                               kinds: Sequence[SymmetryKind],
                               max_pair_checks: int
                               ) -> Tuple[List[Any], List[List[int]]]:
    """Domain-generic body of :func:`assign_for_symmetry_multi`."""
    outputs = list(handles)
    support = set()
    for f in outputs:
        support |= ops.support(f)
    variables = [v for v in variables if v in support]
    if len(variables) < 2:
        return outputs, [[v] for v in variables]
    # Each pair check below costs O(len(outputs)) cofactor comparisons;
    # normalise the budget so wide bundles stay cheap.
    max_pair_checks = max(60, max_pair_checks // max(1, len(outputs)))

    # Phase 1: common pairs across all outputs.  Each pair check costs
    # O(outputs) cofactor comparisons, so wide bundles are budgeted.
    kind = SymmetryKind.NONEQUIVALENCE
    common_groups: List[List[int]] = [[v] for v in variables]
    checks = 0
    changed = True
    while changed and checks < max_pair_checks:
        changed = False
        for a in range(len(common_groups)):
            merged_into = None
            for b in range(a + 1, len(common_groups)):
                checks += 1
                if checks >= max_pair_checks:
                    break
                va, vb = common_groups[a][0], common_groups[b][0]
                if not all(ops.potentially_symmetric(o, va, vb, kind)
                           for o in outputs):
                    continue
                candidates = []
                ok = True
                for f in outputs:
                    candidate = f
                    new_group = list(common_groups[a])
                    for var in common_groups[b]:
                        result = _try_merge_ops(ops, candidate, new_group,
                                                var, kind)
                        if result is None:
                            ok = False
                            break
                        candidate = result
                        new_group.append(var)
                    if not ok:
                        break
                    candidates.append(candidate)
                if ok:
                    outputs = candidates
                    common_groups[a] = common_groups[a] + common_groups[b]
                    merged_into = b
                    changed = True
                    break
            if merged_into is not None:
                del common_groups[merged_into]
                break

    # Phase 2: per-output residual symmetrisation.  The common groups of
    # phase 1 are protected: an assignment that would break their strong
    # symmetry is rejected (the "compatible steps" requirement).  Skipped
    # when the remaining budget is exhausted (wide bundles).
    protected = [g for g in common_groups if len(g) > 1]
    budget = max(0, max_pair_checks - checks) // max(1, len(outputs))
    refined = []
    for f in outputs:
        if budget > 10:
            f, _ = _assign_for_symmetry(ops, f, variables, kinds,
                                        max_pair_checks=budget,
                                        protected_groups=protected)
        refined.append(f)
    return refined, common_groups


def assign_for_symmetry_multi(bdd: BDD, outputs: Sequence[ISF],
                              variables: Sequence[int],
                              kinds: Sequence[SymmetryKind] = (
                                  SymmetryKind.NONEQUIVALENCE,
                                  SymmetryKind.EQUIVALENCE),
                              max_pair_checks: int = 3000,
                              ) -> Tuple[List[ISF], List[List[int]]]:
    """Step 1 for a multi-output function.

    Each output's don't cares are assigned independently (they have
    independent DC sets), but pairs that are potentially symmetric in
    *every* output are processed first so that the outputs develop
    *common* symmetry groups — these are the groups the shared bound-set
    selection can exploit.
    """
    ops, handles = symmetry_domain(bdd, list(outputs), variables,
                                   "symmetry_assign")
    start = perf_counter()
    refined, groups = _assign_for_symmetry_multi(ops, handles, variables,
                                                 kinds, max_pair_checks)
    result = [ops.lower(f) for f in refined]
    if ops.domain == "kernel":
        KERNEL_STATS.record_hit("symmetry_assign", perf_counter() - start)
    return result, groups


__all__ = [
    "assign_for_symmetry",
    "assign_for_symmetry_multi",
    "isf_symmetry_groups",
    "potential_pairs",
    "symmetry_domain",
]
