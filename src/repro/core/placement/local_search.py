"""Swap-based local search refinement of a placement.

The online re-solver: :class:`~repro.core.online.OnlineReplacer` warm-starts
it from the live placement whenever kept mass degrades.  Starting from any
feasible placement, it repeatedly swaps two experts of the same layer
between GPUs whenever the swap increases kept transition mass.
Feasibility (formulas 9/10) is preserved by construction — swaps never
change per-GPU counts.  First-improvement with random swap order; stops
after a full pass without improvement or after ``max_passes`` passes.

**Group-mass deltas.**  Swapping experts ``a`` (on GPU ``ga``) and ``b``
(on ``gb``) at layer ``l`` only changes transitions incident to the two
experts, so its delta reads the mass expert ``x`` receives from each
predecessor group, ``In[x, g] = W_{l-1}[gpu_of[l-1] == g, x].sum()``, and
sends to each successor group, ``Out[x, g] = W_l[x, gpu_of[l+1] == g].sum()``.
While layer ``l`` is swept only ``gpu_of[l]`` changes: its neighbours
``gpu_of[l-1]`` and ``gpu_of[l+1]`` stay frozen, so both tables are built
once per layer sweep and stay exact for every pair in it.  Each table
entry reduces a contiguous row holding the same values in the same order
as the masked 1-D sum it stands for, so numpy's pairwise summation gives
the same bits; with the delta's terms added in a fixed order, every
accept/reject decision equals that of per-pair masked reductions.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement.base import Placement
from repro.core.placement.ilp import chain_objective
from repro.trace.events import RoutingTrace

__all__ = ["local_search_placement"]


def _mass_into(w: np.ndarray, prev: np.ndarray, num_gpus: int) -> list[list[float]]:
    """``In[x][g]``: mass from the experts ``prev`` puts on GPU ``g`` into ``x``."""
    cols = [np.ascontiguousarray(w[prev == g].T).sum(axis=1) for g in range(num_gpus)]
    return np.stack(cols, axis=1).tolist()


def _mass_out(w: np.ndarray, nxt: np.ndarray, num_gpus: int) -> list[list[float]]:
    """``Out[x][g]``: mass from ``x`` to the experts ``nxt`` puts on GPU ``g``."""
    # the fancy-indexed block is Fortran-ordered: copy it so each row reduces
    # contiguously, like the 1-D ``w[x, nxt == g]`` it stands for
    cols = [np.ascontiguousarray(w[:, nxt == g]).sum(axis=1) for g in range(num_gpus)]
    return np.stack(cols, axis=1).tolist()


def local_search_placement(
    trace: RoutingTrace,
    num_gpus: int,
    start: Placement | None = None,
    max_passes: int = 20,
    rng: np.random.Generator | None = None,
) -> Placement:
    """First-improvement swap search from ``start`` (default: contiguous)."""
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    e, L = trace.num_experts, trace.num_layers
    if start is None:
        from repro.core.placement.vanilla import vanilla_placement

        start = vanilla_placement(L, e, num_gpus)
    if (start.num_layers, start.num_experts) != (L, e):
        raise ValueError("start placement does not match trace shape")
    if start.num_gpus != num_gpus:
        raise ValueError(
            f"start placement spans {start.num_gpus} GPUs, but num_gpus={num_gpus}"
        )

    rng = rng or np.random.default_rng(0)
    weights = [trace.transition_counts(j).astype(np.float64) for j in range(L - 1)]
    gpu_of = start.gpu_of.copy()

    pairs = [(a, b) for a in range(e) for b in range(a + 1, e)]
    for _ in range(max_passes):
        improved = False
        for layer in range(L):
            order = rng.permutation(len(pairs))
            into = out = None
            if layer > 0:
                into = _mass_into(weights[layer - 1], gpu_of[layer - 1], num_gpus)
            if layer < L - 1:
                out = _mass_out(weights[layer], gpu_of[layer + 1], num_gpus)
            row = gpu_of[layer].tolist()
            for idx in order.tolist():
                a, b = pairs[idx]
                ga, gb = row[a], row[b]
                if ga == gb:
                    continue
                # term order is part of the exactness contract above
                delta = 0.0
                if into is not None:
                    in_a, in_b = into[a], into[b]
                    delta += in_a[gb] - in_a[ga]
                    delta += in_b[ga] - in_b[gb]
                if out is not None:
                    out_a, out_b = out[a], out[b]
                    delta += out_a[gb] - out_a[ga]
                    delta += out_b[ga] - out_b[gb]
                if delta > 1e-12:
                    row[a], row[b] = gb, ga
                    improved = True
            gpu_of[layer] = row
        if not improved:
            break

    result = Placement(gpu_of, num_gpus, strategy="local-search")
    # sanity: local search must never be worse than its starting point
    assert chain_objective(result.gpu_of, weights) >= chain_objective(
        start.gpu_of, weights
    ) - 1e-9
    return result
