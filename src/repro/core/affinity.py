"""Inter-layer expert affinity statistics (paper Section IV-B, formulas 1-6).

*Affinity* is the conditional probability that a token routed to expert
``i`` at MoE layer ``j`` selects expert ``p`` at layer ``j+1``:

    ``A_j[i, p] = P(E_{p, j+1} | E_{i, j})``            (formula 1)

All functions here are estimators over a :class:`~repro.trace.RoutingTrace`.
They feed two consumers: the placement solvers (which need the *combined*
affinity of expert sets, formulas 5-6) and the training-dynamics experiments
(which track the scalar :func:`scaled_affinity` across checkpoints, Fig 12).
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import CountTrace, RoutingTrace

__all__ = [
    "affinity_matrix",
    "multi_hop_affinity",
    "set_affinity",
    "staged_set_affinity",
    "scaled_affinity",
    "affinity_concentration",
    "most_affiliated",
    "StreamingAffinityEstimator",
]


def affinity_matrix(trace: RoutingTrace, layer: int) -> np.ndarray:
    """Formula (1): (E, E) conditional matrix between ``layer`` and the next.

    Row ``i`` = distribution over layer ``layer+1`` experts conditioned on
    having used expert ``i`` at ``layer``.  This is exactly what each panel
    of Fig 2 visualises.
    """
    return trace.conditional_matrix(layer)


def multi_hop_affinity(trace: RoutingTrace, layer: int, target_layer: int) -> np.ndarray:
    """Affinity between non-consecutive layers (Figs 14-16).

    ``P(E_{p, target} | E_{i, layer})`` estimated directly from token paths
    (not by chaining one-hop matrices, so higher-order dependence is kept).
    """
    if target_layer <= layer:
        raise ValueError("target_layer must be after layer")
    return trace.conditional_matrix(layer, target_layer)


def most_affiliated(trace: RoutingTrace, layer: int) -> np.ndarray:
    """Formula (2): for each expert at ``layer``, its most likely successor.

    Returns (E,) argmax over each affinity row.  The paper notes this local
    rule collides (several experts may share a best successor), which is why
    global optimisation is needed — but it remains a useful diagnostic.
    """
    return affinity_matrix(trace, layer).argmax(axis=1)


def set_affinity(
    trace: RoutingTrace,
    layer: int,
    src_experts: np.ndarray,
    dst_experts: np.ndarray,
) -> float:
    """Formula (5): combined affinity of expert sets across a layer pair.

    The probability mass of tokens that used any ``src_experts`` at
    ``layer`` and moved to any ``dst_experts`` at ``layer+1``, normalised by
    the mass entering ``src_experts``.  When both sets are one GPU's experts
    this is the probability a token on that GPU *stays* on it.
    """
    src = np.asarray(src_experts, dtype=np.int64)
    dst = np.asarray(dst_experts, dtype=np.int64)
    counts = trace.transition_counts(layer)
    src_mass = counts[src].sum()
    if src_mass == 0:
        return 0.0
    return float(counts[np.ix_(src, dst)].sum() / src_mass)


def staged_set_affinity(
    trace: RoutingTrace,
    layer: int,
    gpu_experts: np.ndarray,
    node_experts: np.ndarray,
) -> float:
    """Formula (6): GPU-level affinity plus second-degree node-level term.

    ``gpu_experts`` are one GPU's experts (both layers use the same id set
    interpretation as :func:`set_affinity`); ``node_experts`` are the
    remaining experts held by *other GPUs of the same node*.  The sum is the
    probability a token on the GPU stays within its node.
    """
    gpu_term = set_affinity(trace, layer, gpu_experts, gpu_experts)
    node_term = set_affinity(trace, layer, gpu_experts, node_experts)
    return gpu_term + node_term


def affinity_concentration(trace: RoutingTrace, layer: int, top: int = 2) -> float:
    """Mass captured by each row's ``top`` hottest successors, averaged.

    Quantifies Fig 2's visual claim ("for each row ... only a few columns
    are red"): a value near 1 with small ``top`` means strong affinity; a
    memoryless router gives ``top / E``.  Rows are weighted by their token
    mass so rarely used experts don't dominate.
    """
    counts = trace.transition_counts(layer).astype(np.float64)
    row_mass = counts.sum(axis=1)
    total = row_mass.sum()
    if total == 0:
        return 0.0
    probs = counts / np.where(row_mass[:, None] > 0, row_mass[:, None], 1.0)
    top_mass = np.sort(probs, axis=1)[:, -top:].sum(axis=1)
    return float((top_mass * row_mass).sum() / total)


def scaled_affinity(trace: RoutingTrace, top: int = 2) -> float:
    """The scalar affinity metric tracked during training (Fig 12).

    Average of :func:`affinity_concentration` over all consecutive layer
    pairs, rescaled so that a memoryless uniform router scores 0 and a
    deterministic router scores 1:

        ``scaled = (raw - top/E) / (1 - top/E)``

    The paper scales its affinity "for better visualisation"; this rescaling
    makes runs with different expert counts comparable on one axis, exactly
    what Fig 12 plots.
    """
    if trace.num_layers < 2:
        raise ValueError("need at least 2 layers to measure affinity")
    raw = float(
        np.mean([affinity_concentration(trace, j, top) for j in range(trace.num_layers - 1)])
    )
    floor = min(top, trace.num_experts) / trace.num_experts
    if floor >= 1.0:
        return 1.0
    return max(0.0, (raw - floor) / (1.0 - floor))


class StreamingAffinityEstimator:
    """Exponentially-decayed transition counts updated per serving step.

    The paper estimates affinity once, from an offline profiling trace; a
    live serving system instead sees routing decisions *streaming* past and
    must keep the estimate current as the workload drifts.  This estimator
    maintains, for every consecutive layer pair, a transition-count matrix
    where each observed transition is weighted ``0.5 ** (age_tokens /
    halflife_tokens)`` — recent traffic dominates, a regime switch fades the
    stale counts away within a few halflives, and a stationary workload
    converges to (a scaled copy of) its true transition matrix.

    Decay is applied per :meth:`update` batch (all tokens of one decode step
    share one timestamp), which keeps the hot path to one scale + one
    batched ``bincount`` per call.

    ``effective_tokens`` is the decayed token mass currently in the window —
    the "sample size" behind the estimate; consumers should not trust the
    estimate (nor re-solve placements from it) before it clears a floor.
    """

    def __init__(
        self,
        num_experts: int,
        num_layers: int,
        halflife_tokens: float = 2048.0,
    ) -> None:
        if num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if num_layers < 2:
            raise ValueError("need at least 2 layers to track transitions")
        # +inf is legal ("never forget"); ``not h > 0`` also catches NaN
        if not halflife_tokens > 0:
            raise ValueError(f"halflife_tokens must be positive, got {halflife_tokens}")
        self.num_experts = int(num_experts)
        self.num_layers = int(num_layers)
        self.halflife_tokens = float(halflife_tokens)
        self._decay_per_token = 0.5 ** (1.0 / self.halflife_tokens)
        self._counts = np.zeros(
            (self.num_layers - 1, self.num_experts, self.num_experts), dtype=np.float64
        )
        self._effective_tokens = 0.0
        self._total_tokens = 0

    # -- observation ---------------------------------------------------------

    def update(self, paths: np.ndarray) -> None:
        """Fold one batch of token paths into the decayed counts.

        ``paths`` is (N, L) expert ids — e.g. one decode step's routing
        decisions for the whole active batch.  Existing counts are decayed
        by ``N`` tokens' worth of age, then the batch's transitions are
        added at full weight.
        """
        paths = np.asarray(paths, dtype=np.int64)
        if paths.ndim != 2 or paths.shape[1] != self.num_layers:
            raise ValueError(
                f"paths must be (tokens, {self.num_layers}), got {paths.shape}"
            )
        n = paths.shape[0]
        if n == 0:
            return
        if paths.min() < 0 or paths.max() >= self.num_experts:
            raise ValueError(f"expert ids must be in [0, {self.num_experts})")

        decay = self._decay_per_token**n
        self._counts *= decay
        self._effective_tokens *= decay

        e = self.num_experts
        pairs = self.num_layers - 1
        # one flattened bincount over the (layer-pair, src, dst) key space
        offsets = np.arange(pairs, dtype=np.int64) * (e * e)
        keys = offsets[None, :] + paths[:, :-1] * e + paths[:, 1:]
        batch = np.bincount(keys.ravel(), minlength=pairs * e * e)
        self._counts += batch.reshape(pairs, e, e)
        self._effective_tokens += n
        self._total_tokens += n

    # -- estimates -----------------------------------------------------------

    @property
    def effective_tokens(self) -> float:
        """Decayed token mass in the current window (estimate sample size)."""
        return self._effective_tokens

    @property
    def total_tokens(self) -> int:
        """Undecayed count of all tokens ever observed."""
        return self._total_tokens

    def transition_counts(self, layer: int) -> np.ndarray:
        """(E, E) decayed counts between ``layer`` and ``layer + 1``."""
        if not 0 <= layer < self.num_layers - 1:
            raise IndexError(f"layer {layer} out of range [0, {self.num_layers - 1})")
        return self._counts[layer].copy()

    def counts_stack(self) -> np.ndarray:
        """(L-1, E, E) copy of the full decayed count stack."""
        return self._counts.copy()

    def conditional_matrix(self, layer: int) -> np.ndarray:
        """Formula (1) over the decayed window; unobserved rows are uniform.

        Delegates to :class:`CountTrace` so the streaming and snapshot
        views of the same counts can never disagree on the normalisation.
        """
        return CountTrace(self._counts).conditional_matrix(layer)

    def as_trace(self) -> CountTrace:
        """Snapshot the decayed counts as a solver-consumable trace.

        The returned :class:`~repro.trace.events.CountTrace` presents the
        exact interface the placement solver family reads from a profiled
        :class:`~repro.trace.events.RoutingTrace`, so an online re-solve is
        ``solve(estimator.as_trace(), ...)`` — no synthetic path sampling.
        """
        return CountTrace(
            self._counts.copy(),
            source=f"streaming(h={self.halflife_tokens:g},n={self._effective_tokens:.0f})",
        )

    def reset(self) -> None:
        """Drop all accumulated counts (e.g. after a known workload change)."""
        self._counts[:] = 0.0
        self._effective_tokens = 0.0
