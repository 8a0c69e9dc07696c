"""Expert-to-GPU placement strategies.

A placement assigns every ``(layer, expert)`` pair to a GPU rank under the
load-balance constraint of formula (9): each GPU holds exactly ``E / G``
experts per layer.  Strategies:

* :func:`vanilla_placement` — DeepSpeed-MoE's rank-contiguous layout (the
  baseline in every figure).
* :func:`greedy_placement` — chained per-layer greedy grouping.
* :func:`ilp_placement` — per-layer-pair optimal assignment (the paper's
  formulas 8-12): each GPU is expanded into slots and solved exactly by
  :func:`assignment_solve`, an in-house shortest-augmenting-path solver;
  chained across layers.
* :func:`joint_ilp_placement` — the exact optimum of the same objective,
  by a DP over each layer's balanced assignments; small instances only
  (E = 8 experts on 4 GPUs, or E = 14 on 2).
* :func:`staged_placement` — the paper's two-stage topology-aware variant:
  stage 1 minimises inter-node crossings, stage 2 minimises intra-node
  crossings given stage 1 (Section IV-C/D).
* :func:`local_search_placement` — swap-based refinement; warm-started
  from the live placement, it is the online re-solver of
  :class:`~repro.core.online.OnlineReplacer`.
"""

from repro.core.placement.base import Placement, placement_locality
from repro.core.placement.vanilla import vanilla_placement
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.ilp import ilp_placement, joint_ilp_placement, assignment_solve
from repro.core.placement.staged import staged_placement
from repro.core.placement.local_search import local_search_placement
from repro.core.placement.replication import (
    ReplicatedPlacement,
    popularity_replication,
    replicated_locality,
    validate_replication_memory,
)
from repro.core.placement.registry import solve_placement, SOLVERS

__all__ = [
    "Placement",
    "placement_locality",
    "vanilla_placement",
    "greedy_placement",
    "ilp_placement",
    "joint_ilp_placement",
    "assignment_solve",
    "staged_placement",
    "local_search_placement",
    "ReplicatedPlacement",
    "popularity_replication",
    "replicated_locality",
    "validate_replication_memory",
    "solve_placement",
    "SOLVERS",
]
