"""Seeded input generators for the end-to-end benchmark.

Everything the program under test receives is made here: the
DC-plane PLA variants of ``table1-dc`` and the job mixes of
``batch-small`` and ``serve-open``.  The same seed gives the same
inputs; the program never sees the seed itself.

The inputs themselves form a fixed catalogue: the synthetic jobs and
the external DC planes are drawn from :data:`CATALOGUE_SEED`, and the
jobs of a mix (each catalogue entry once, plus Zipf repeats) are the
same multiset for every seed.  So neither the quality totals (LUTs,
CLBs) nor the amount of work move with the workload seed; it decides
the order of the jobs and when each request arrives.  (Drawing the DC
planes from the workload seed made one variant's map time range from
0.23 s to 1.15 s across seeds, which measured the draw, not the
program.)
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

#: The fast Table 1 set ``cli-oneshot`` cycles through.
FAST_TABLE1 = ("5xp1", "9sym", "alu2", "clip", "f51m", "misex1", "rd73",
               "rd84", "sao2", "z4ml")

#: Every Table 1 row except rot (56 s on its own: left out for run
#: length only).
TABLE1_ROWS = ("5xp1", "9sym", "alu2", "apex7", "b9", "C499", "C880",
               "clip", "count", "duke2", "e64", "f51m", "misex1",
               "misex2", "rd73", "rd84", "sao2", "vg2", "z4ml")

#: The rows that take seconds each; ``table1-dc`` maps them once and
#: every other input in several rounds.
TABLE1_HEAVY = ("b9", "C499", "C880", "duke2", "e64")

#: C499 runs under this node budget: it never finishes unbudgeted, and a
#: node budget (unlike a wall-clock one) falls back deterministically.
C499_NODE_BUDGET = 200000

#: Circuits given an external DC plane (drawn from
#: :data:`CATALOGUE_SEED`), and the DC densities.
DC_BASES = ("rd84", "5xp1", "alu2", "f51m", "t481")
DC_DENSITIES = (0.1, 0.3)

#: Small registry circuits in the batch/serve catalogue.
SMALL_REGISTRY = ("rd53", "rd73", "rd84", "z4ml", "misex1", "clip",
                  "9sym", "sao2", "5xp1", "alu2", "f51m", "misex2",
                  "vg2", "count")

#: Fixed seed of the synthetic jobs and the DC planes (not the workload
#: seed: see the module docstring).
CATALOGUE_SEED = "e2ebench-catalogue-v1"


def rng_for(seed: int, *tags: object) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(":".join([str(seed)] + [str(t) for t in tags]))


# ---------------------------------------------------------------------
# DC-plane PLA variants
# ---------------------------------------------------------------------

def dc_plane_pla(reference, density: float, rng: random.Random) -> str:
    """An ``fd`` PLA of a completely specified circuit with a seeded
    external DC plane.

    The rows are the disjoint on-set and off-set cubes of each output
    (``reference`` is an :class:`oracle.WireReference`); every on-set
    row and every zero row has its output entry turned to ``-`` with
    probability ``density``.  Zero rows left alone are implied by ``fd``
    and not written.
    """
    m_out = len(reference.output_names)
    rows = []
    for j in range(m_out):
        onset, offset = reference.path_cubes(j)
        for cube in onset:
            ch = "-" if rng.random() < density else "1"
            rows.append(cube + " " + "0" * j + ch + "0" * (m_out - j - 1))
        for cube in offset:
            if rng.random() < density:
                rows.append(cube + " " + "0" * j + "-"
                            + "0" * (m_out - j - 1))
    lines = [f".i {reference.num_inputs}", f".o {m_out}",
             ".ilb " + " ".join(reference.input_names),
             ".ob " + " ".join(reference.output_names),
             ".type fd", f".p {len(rows)}"]
    return "\n".join(lines + rows + [".e"]) + "\n"


def dc_variant_name(base: str, density: float) -> str:
    return f"{base}@dc{density:g}"


# ---------------------------------------------------------------------
# Job mixes
# ---------------------------------------------------------------------

def synth_catalogue(count: int, tag: str = "b") -> List[str]:
    """``synth:<tag>:<8-12>:<2-6>:<k>`` manifest entries, fixed for all
    workload seeds."""
    rng = random.Random(f"{CATALOGUE_SEED}:{tag}")
    return [f"synth:{tag}:{rng.randint(8, 12)}:{rng.randint(2, 6)}:{k}"
            for k in range(count)]


def zipf_counts(ranking: Sequence[str], repeats: int,
                zipf_s: float = 1.1) -> Dict[str, int]:
    """``repeats`` extra occurrences shared out by Zipf popularity over
    ``ranking`` (largest-remainder rounding, so the counts are exact)."""
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(ranking))]
    scale = repeats / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(ranking)),
                          key=lambda k: (counts[k] - shares[k], k))
    for k in by_remainder[:repeats - sum(counts)]:
        counts[k] += 1
    return dict(zip(ranking, counts))


def job_mix(catalogue: Sequence[str], total: int, seed: int, tag: str
            ) -> List[str]:
    """``total`` jobs: every catalogue entry once plus Zipf repeats, the
    catalogue order being the popularity ranking, in a seeded order.

    The multiset of jobs is the same for every seed, so seeds change
    order and timing but not the amount of work.
    """
    if total < len(catalogue):
        raise ValueError("a mix holds every catalogue entry at least once")
    counts = zipf_counts(catalogue, total - len(catalogue))
    jobs = [entry for entry in catalogue for _ in range(1 + counts[entry])]
    rng_for(seed, tag, "mix").shuffle(jobs)
    return jobs


def poisson_arrivals(count: int, window: float, seed: int, tag: str
                     ) -> List[float]:
    """Due times (seconds from the window start) of a Poisson process
    conditioned on ``count`` arrivals in ``window`` seconds: sorted
    independent uniform times.  Conditioning fixes the offered load, so
    seeds differ in arrival pattern but not in total work."""
    rng = rng_for(seed, tag, "arrivals")
    return sorted(rng.uniform(0.0, window) for _ in range(count))


def round_orders(names: Sequence[str], rounds: int, seed: int
                 ) -> List[List[str]]:
    """A seeded order of ``names`` for each round."""
    rng = rng_for(seed, "rounds")
    out = []
    for _ in range(rounds):
        order = list(names)
        rng.shuffle(order)
        out.append(order)
    return out


def repeat_share(jobs: Sequence[str]) -> float:
    return 1.0 - len(set(jobs)) / len(jobs)

