"""Solver registry: name -> placement strategy.

Lets benchmarks, examples and the :class:`~repro.core.exflow.ExFlowOptimizer`
select a strategy by string, with uniform signature handling (some solvers
need the cluster hierarchy, some only the GPU count).
"""

from __future__ import annotations

from repro.config import ClusterConfig
from repro.core.placement.base import Placement
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.ilp import ilp_placement, joint_ilp_placement
from repro.core.placement.local_search import local_search_placement
from repro.core.placement.staged import staged_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.trace.events import RoutingTrace

__all__ = ["solve_placement", "SOLVERS"]

SOLVERS: tuple[str, ...] = (
    "vanilla",
    "greedy",
    "ilp",
    "ilp-joint",
    "staged",
    "local-search",
)


def solve_placement(
    strategy: str,
    trace: RoutingTrace,
    cluster: ClusterConfig,
    **kwargs: object,
) -> Placement:
    """Build a placement for ``cluster`` from ``trace`` with ``strategy``.

    ``vanilla`` ignores the trace (affinity-blind baseline); ``staged`` uses
    the cluster's node hierarchy; the rest operate at GPU granularity.
    Extra ``kwargs`` are forwarded to the underlying solver (e.g.
    ``sweeps`` for the chained ILP); the exact joint solver takes none.
    """
    g = cluster.num_gpus
    if strategy == "vanilla":
        return vanilla_placement(trace.num_layers, trace.num_experts, g)
    if strategy == "greedy":
        return greedy_placement(trace, g, **kwargs)
    if strategy == "ilp":
        return ilp_placement(trace, g, **kwargs)
    if strategy == "ilp-joint":
        return joint_ilp_placement(trace, g, **kwargs)
    if strategy == "staged":
        return staged_placement(trace, cluster, **kwargs)
    if strategy == "local-search":
        return local_search_placement(trace, g, **kwargs)
    raise ValueError(f"unknown placement strategy {strategy!r}; choose from {SOLVERS}")
