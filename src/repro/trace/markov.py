"""Controlled synthetic routing traces with tunable inter-layer affinity.

The paper measures affinity in real checkpoints; for ablations ("how strong
must affinity be before placement pays off?") and for fast deterministic
tests we also need traces whose affinity strength is a *dial*.  A
:class:`MarkovRoutingModel` generates token paths from a first-layer prior
and per-layer-pair transition matrices

    ``T_j = alpha * S_j + (1 - alpha) * U``

where ``S_j`` is a structured row-stochastic kernel (each expert
concentrates its mass on a few successors, like the hot columns of Fig 2),
``U`` the uniform kernel, and ``alpha`` the affinity strength: 0 gives
memoryless uniform routing (the paper's "purely stochastic" null
hypothesis), 1 gives near-deterministic expert chains.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.trace.events import RoutingTrace

__all__ = ["make_affinity_transitions", "MarkovRoutingModel"]

#: calls of at most this many tokens walk each token in Python; larger ones
#: run the vectorised per-layer passes (crossover measured in DESIGN.md)
_WALK_MAX_TOKENS = 16


def make_affinity_transitions(
    num_experts: int,
    num_layers: int,
    affinity: float,
    successors: int = 2,
    rng: np.random.Generator | None = None,
    collision: float = 0.0,
) -> np.ndarray:
    """Build (L-1, E, E) row-stochastic transition stacks.

    Each expert at layer ``j`` prefers ``successors`` random next-layer
    experts (a random permutation block, so preferences don't all collide on
    one expert — the trained models in the paper are load-balanced).

    Parameters
    ----------
    affinity:
        Mixing weight alpha in [0, 1] toward the structured kernel.
    successors:
        How many hot columns each row has (Fig 2 shows "only a few columns
        are red" per row).
    collision:
        Fraction of rows whose primary preferred successor is redirected to
        a small set of shared "hub" experts.  Real checkpoints exhibit this
        (several experts funnel into the same popular successor), and it is
        exactly what limits affinity placement when each GPU holds one
        expert per layer: colliding rows cannot all co-locate with their
        hub.  0 keeps the fully placeable permutation structure; 1 makes
        every primary preference point at a hub.
    """
    if not 0.0 <= affinity <= 1.0:
        raise ValueError("affinity must be in [0, 1]")
    if not 0.0 <= collision <= 1.0:
        raise ValueError("collision must be in [0, 1]")
    if not 1 <= successors <= num_experts:
        raise ValueError("successors must be in [1, num_experts]")
    if num_layers < 2:
        raise ValueError("need at least 2 layers for transitions")
    rng = rng or np.random.default_rng(0)

    e = num_experts
    uniform = np.full((e, e), 1.0 / e)
    stacks = np.empty((num_layers - 1, e, e))
    num_hubs = max(1, e // 8)
    for j in range(num_layers - 1):
        structured = np.zeros((e, e))
        # one permutation per preferred-successor slot keeps columns balanced
        for s in range(successors):
            perm = rng.permutation(e)
            if s == 0 and collision > 0:
                hubs = rng.choice(e, size=num_hubs, replace=False)
                redirect = rng.random(e) < collision
                perm = perm.copy()
                perm[redirect] = hubs[rng.integers(0, num_hubs, size=int(redirect.sum()))]
            weight = 2.0 ** (-s)  # first successor twice as hot as the second
            structured[np.arange(e), perm] += weight
        structured /= structured.sum(axis=1, keepdims=True)
        stacks[j] = affinity * structured + (1.0 - affinity) * uniform
    return stacks


@dataclass
class MarkovRoutingModel:
    """First-order Markov routing generator.

    Attributes
    ----------
    transitions:
        (L-1, E, E) row-stochastic transition matrices.
    prior:
        (E,) first-layer expert distribution; uniform if omitted.
    """

    transitions: np.ndarray
    prior: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.transitions, dtype=np.float64)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"transitions must be (L-1, E, E), got {t.shape}")
        if (t < 0).any():
            raise ValueError("transition probabilities must be non-negative")
        rows = t.sum(axis=2)
        if not np.allclose(rows, 1.0, atol=1e-8):
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "transitions", t)
        if self.prior is not None:
            p = np.asarray(self.prior, dtype=np.float64)
            if p.shape != (t.shape[1],) or (p < 0).any() or not np.isclose(p.sum(), 1.0):
                raise ValueError("prior must be a distribution over experts")
            object.__setattr__(self, "prior", p)

    @property
    def num_experts(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_layers(self) -> int:
        return self.transitions.shape[0] + 1

    @classmethod
    def with_affinity(
        cls,
        num_experts: int,
        num_layers: int,
        affinity: float,
        successors: int = 2,
        rng: np.random.Generator | None = None,
        collision: float = 0.0,
    ) -> "MarkovRoutingModel":
        """Convenience constructor wrapping :func:`make_affinity_transitions`."""
        return cls(
            make_affinity_transitions(
                num_experts, num_layers, affinity, successors, rng, collision
            )
        )

    def model_at(self, t: float) -> MarkovRoutingModel:
        """A fixed router is its own constant drift scenario."""
        return self

    def sample(self, num_tokens: int, rng: np.random.Generator | None = None) -> RoutingTrace:
        """Draw ``num_tokens`` expert paths by inverse-CDF sampling.

        One ``(L, N)`` uniform draw yields the same doubles in the same order
        as one ``N``-draw per layer.  A token's expert at layer ``j + 1`` is
        the number of entries below its uniform in its current expert's row
        of the cached transition CDFs (clamped to ``E - 1`` against rounding
        short of 1).  Calls of up to ``_WALK_MAX_TOKENS`` tokens walk each
        token in Python, bisecting the CDF rows; larger calls gather every
        token's row and compare per layer.  Both read the same doubles and
        count the same entries, so they return identical paths.
        """
        if num_tokens < 0:
            raise ValueError("num_tokens must be >= 0")
        rng = rng or np.random.default_rng(0)
        e, L = self.num_experts, self.num_layers
        u = rng.random((L, num_tokens))
        if num_tokens <= _WALK_MAX_TOKENS:
            paths = self._walk(u)
        else:
            paths = np.empty((num_tokens, L), dtype=np.int64)
            cdf0, cdfs = self._cdfs
            # both searches return counts in [0, E]; only the top needs clamping
            paths[:, 0] = np.minimum(np.searchsorted(cdf0, u[0], side="right"), e - 1)
            for j in range(L - 1):
                cdf = cdfs[j][paths[:, j]]  # (N, E)
                paths[:, j + 1] = np.minimum((cdf < u[j + 1, :, None]).sum(axis=1), e - 1)
        return RoutingTrace(paths, e, source=f"markov(a={self._affinity_label})")

    def _walk(self, u: np.ndarray) -> np.ndarray:
        """(N, L) paths for the (L, N) uniforms ``u``, one token at a time.

        On a non-decreasing row, ``bisect_left`` counts the entries ``< x``
        and ``bisect_right`` the entries ``<= x``: the vectorised path's
        compare-and-sum and ``searchsorted(side="right")``.  Searching only
        a row's first ``E - 1`` entries is its clamp to ``E - 1``.
        """
        e, L = self.num_experts, self.num_layers
        prior, flat = self._cdf_views
        top, stride = e - 1, e * e
        out: list[int] = []
        for col in u.T.tolist():
            cur = bisect_right(prior, col[0], 0, top)
            out.append(cur)
            base = 0
            for x in col[1:]:
                lo = base + cur * e
                cur = bisect_left(flat, x, lo, lo + top) - lo
                out.append(cur)
                base += stride
        return np.array(out, dtype=np.int64).reshape(-1, L)

    @cached_property
    def _cdfs(self) -> tuple[np.ndarray, np.ndarray]:
        """(E,) prior CDF and (L-1, E, E) row CDFs of the transition stack."""
        e = self.num_experts
        prior = self.prior if self.prior is not None else np.full(e, 1.0 / e)
        return np.cumsum(prior), np.cumsum(self.transitions, axis=2)

    @cached_property
    def _cdf_views(self) -> tuple[memoryview, memoryview]:
        """Views of :attr:`_cdfs` for ``bisect``; row ``(j, i)`` starts at ``(j*E + i)*E``.

        Views share the arrays' memory; list copies would double the CDF
        footprint of every cached drift blend.
        """
        cdf0, cdfs = self._cdfs
        return memoryview(cdf0), memoryview(cdfs.reshape(-1))

    def __getstate__(self) -> dict[str, object]:
        # memoryviews do not pickle; copies rebuild every cache on demand
        return {"transitions": self.transitions, "prior": self.prior}

    @cached_property
    def _affinity_label(self) -> str:
        # diagnostic: mean max-row-probability across layers
        return f"{float(self.transitions.max(axis=2).mean()):.2f}"

    def stationary_distribution(self, layer: int) -> np.ndarray:
        """Marginal expert distribution at ``layer`` under the model."""
        if not 0 <= layer < self.num_layers:
            raise IndexError("layer out of range")
        e = self.num_experts
        dist = self.prior if self.prior is not None else np.full(e, 1.0 / e)
        for j in range(layer):
            dist = dist @ self.transitions[j]
        return dist
