"""ExFlow core: affinity modelling, expert placement, online re-placement.

This package implements the paper's primary contribution:

* :mod:`repro.core.affinity` — inter-layer expert affinity statistics
  (formulas 1–6): conditional-probability matrices, multi-hop variants,
  combined GPU-set affinity and the scalar affinity metric tracked during
  training.
* :mod:`repro.core.placement` — expert-to-GPU placement strategies, from
  the DeepSpeed round-robin baseline to the integer-programming solution of
  formulas 8–12 and its staged (node-first) variant.
* :mod:`repro.core.online` — online drift-aware re-placement: streaming
  kept-mass monitoring, the replacement trigger policy, warm-started
  re-solves and the explicit expert-migration cost model.
* :mod:`repro.core.exflow` — the :class:`ExFlowOptimizer` facade tying it
  all together: trace in, placement + engine configuration out.
"""

from repro.core.affinity import (
    affinity_matrix,
    multi_hop_affinity,
    set_affinity,
    staged_set_affinity,
    scaled_affinity,
    affinity_concentration,
    StreamingAffinityEstimator,
)
from repro.core.placement import (
    Placement,
    ReplicatedPlacement,
    vanilla_placement,
    greedy_placement,
    ilp_placement,
    staged_placement,
    local_search_placement,
    popularity_replication,
    replicated_locality,
    solve_placement,
    validate_replication_memory,
    SOLVERS,
)
from repro.core.online import (
    OnlineReplacer,
    ReplacementEvent,
    ReplacementPolicy,
    kept_mass_fraction,
    model_kept_mass,
    plan_migration,
)
from repro.core.exflow import ExFlowOptimizer, ExFlowPlan

__all__ = [
    "affinity_matrix",
    "multi_hop_affinity",
    "set_affinity",
    "staged_set_affinity",
    "scaled_affinity",
    "affinity_concentration",
    "StreamingAffinityEstimator",
    "Placement",
    "ReplicatedPlacement",
    "vanilla_placement",
    "greedy_placement",
    "ilp_placement",
    "staged_placement",
    "local_search_placement",
    "popularity_replication",
    "replicated_locality",
    "solve_placement",
    "validate_replication_memory",
    "SOLVERS",
    "OnlineReplacer",
    "ReplacementEvent",
    "ReplacementPolicy",
    "kept_mass_fraction",
    "model_kept_mass",
    "plan_migration",
    "ExFlowOptimizer",
    "ExFlowPlan",
]
