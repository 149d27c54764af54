"""Functional decomposition — the paper's core contribution.

* :mod:`repro.decomp.compat` — compatible classes of bound-set vertices
  (Roth/Karp), for complete functions and for ISFs (clique cover);
* :mod:`repro.decomp.encoding` — class encodings, decomposition functions
  ``alpha`` and composition functions ``g`` with unused-code don't cares;
* :mod:`repro.decomp.multi` — common (strict) decomposition functions for
  multi-output functions (Scholl/Molitor);
* :mod:`repro.decomp.dontcare` — the three-step don't-care assignment;
* :mod:`repro.decomp.bound_set` — bound-set search seeded by symmetry
  groups;
* :mod:`repro.decomp.dsd` — the tier-0 structural pre-pass (disjoint
  support decomposition: dead variables, AND/OR/XOR literal peels, MUX
  splits) that shatters functions before the ncc search;
* :mod:`repro.decomp.recursive` — the recursive drivers ``mulopII``
  (no don't-care exploitation) and ``mulop-dc``.
"""

from repro.decomp.compat import (
    Classes,
    vertex_cofactors,
    compute_classes,
    assign_by_classes,
    ncc,
    min_r,
)
from repro.decomp.encoding import AlphaFunction, OutputEncoding, encode_output
from repro.decomp.multi import select_common_alphas
from repro.decomp.dontcare import (
    assign_step1_symmetry,
    assign_step2_sharing,
    assign_step3_single,
)
from repro.decomp.bound_set import select_bound_set
from repro.decomp.dsd import (
    DsdChain,
    DsdConst,
    DsdCore,
    DsdMux,
    chain_table,
    shatter,
)
from repro.decomp.recursive import DecompositionEngine, decompose
from repro.decomp.single import SingleDecomposition, decompose_single
from repro.decomp.cover import classes_for_exact
from repro.decomp.cut_count import ncc_via_cut

__all__ = [
    "Classes",
    "vertex_cofactors",
    "compute_classes",
    "assign_by_classes",
    "ncc",
    "min_r",
    "AlphaFunction",
    "OutputEncoding",
    "encode_output",
    "select_common_alphas",
    "assign_step1_symmetry",
    "assign_step2_sharing",
    "assign_step3_single",
    "select_bound_set",
    "DsdChain",
    "DsdConst",
    "DsdCore",
    "DsdMux",
    "chain_table",
    "shatter",
    "DecompositionEngine",
    "decompose",
    "SingleDecomposition",
    "decompose_single",
    "classes_for_exact",
    "ncc_via_cut",
]
