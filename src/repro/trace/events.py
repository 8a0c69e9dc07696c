"""The :class:`RoutingTrace` container.

A trace is an (N, L) integer matrix: N profiled tokens, L MoE layers, entry
``paths[k, j]`` = the expert token ``k`` selected at layer ``j``.  The paper
records exactly this during training ("we record tokens' expert routing
decisions at every layer") and solves the placement ILP from it.

The class carries vectorised derived statistics used everywhere downstream:
per-layer expert histograms, consecutive-layer transition counts, and the
conditional-probability (affinity) matrices of formula (1).
"""

from __future__ import annotations

import io as _io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["RoutingTrace", "CountTrace"]


def int64_array(values: object, name: str) -> np.ndarray:
    """``values`` as an int64 array, refusing entries the cast would change.

    Integer and boolean input is cast without a scan; anything else must be
    finite and integral, because the cast would truncate ``1.9`` to ``1``.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iub" and not (
        np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
    ):
        raise ValueError(f"{name} must hold finite integers")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class RoutingTrace:
    """Expert-selection paths of a set of profiled tokens.

    Attributes
    ----------
    paths:
        (N, L) int64 array of expert ids.
    num_experts:
        Experts per layer (E); all entries must lie in [0, E).
    source:
        Free-form provenance label (corpus name, generator id, ...).
    """

    paths: np.ndarray
    num_experts: int
    source: str = ""

    def __post_init__(self) -> None:
        paths = int64_array(self.paths, "paths")
        if paths.ndim != 2:
            raise ValueError(f"paths must be 2-D (tokens, layers), got {paths.shape}")
        if self.num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if paths.size and (paths.min() < 0 or paths.max() >= self.num_experts):
            raise ValueError(
                f"expert ids must be in [0, {self.num_experts}), "
                f"found range [{paths.min()}, {paths.max()}]"
            )
        object.__setattr__(self, "paths", paths)

    # -- basic shape ---------------------------------------------------------

    @property
    def num_tokens(self) -> int:
        return self.paths.shape[0]

    @property
    def num_layers(self) -> int:
        return self.paths.shape[1]

    def __len__(self) -> int:
        return self.num_tokens

    # -- composition ----------------------------------------------------------

    def subsample(self, n: int, rng: np.random.Generator | None = None) -> "RoutingTrace":
        """Random subset of ``n`` tokens (without replacement).

        This is the operation behind Fig 13: how many profiled tokens are
        needed before the affinity estimate stabilises.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if n >= self.num_tokens:
            return self
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(self.num_tokens, size=n, replace=False)
        return RoutingTrace(self.paths[idx], self.num_experts, self.source)

    def concat(self, other: "RoutingTrace") -> "RoutingTrace":
        """Concatenate two traces over the same architecture."""
        if other.num_experts != self.num_experts:
            raise ValueError("traces disagree on num_experts")
        if other.num_layers != self.num_layers:
            raise ValueError("traces disagree on num_layers")
        return RoutingTrace(
            np.concatenate([self.paths, other.paths], axis=0),
            self.num_experts,
            source=self.source or other.source,
        )

    def split(
        self, fraction: float, rng: np.random.Generator | None = None
    ) -> tuple["RoutingTrace", "RoutingTrace"]:
        """Random (train, eval) split — profiling vs benchmarking sets."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        rng = rng or np.random.default_rng(0)
        perm = rng.permutation(self.num_tokens)
        cut = int(round(fraction * self.num_tokens))
        a = RoutingTrace(self.paths[perm[:cut]], self.num_experts, self.source)
        b = RoutingTrace(self.paths[perm[cut:]], self.num_experts, self.source)
        return a, b

    # -- statistics -------------------------------------------------------------

    def layer_histogram(self, layer: int) -> np.ndarray:
        """(E,) token counts per expert at ``layer``."""
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range [0, {self.num_layers})")
        return np.bincount(self.paths[:, layer], minlength=self.num_experts)

    def layer_distribution(self, layer: int) -> np.ndarray:
        """(E,) routing fractions per expert at ``layer`` (Fig 11's series)."""
        h = self.layer_histogram(layer).astype(np.float64)
        total = h.sum()
        return h / total if total else h

    def transition_counts(self, layer: int, next_layer: int | None = None) -> np.ndarray:
        """(E, E) counts: tokens at expert i of ``layer`` reaching expert p
        of ``next_layer`` (default: layer + 1).

        Vectorised via flattened-bincount; no per-token Python loop.
        """
        nxt = layer + 1 if next_layer is None else next_layer
        if not 0 <= layer < self.num_layers or not 0 <= nxt < self.num_layers:
            raise IndexError("layer index out of range")
        e = self.num_experts
        flat = self.paths[:, layer] * e + self.paths[:, nxt]
        return np.bincount(flat, minlength=e * e).reshape(e, e)

    def conditional_matrix(self, layer: int, next_layer: int | None = None) -> np.ndarray:
        """Formula (1): ``P(E_{p, j+1} | E_{i, j})`` as an (E, E) matrix.

        Row ``i`` is the distribution over next-layer experts for tokens
        that used expert ``i`` at ``layer``.  Rows with no observations are
        uniform (maximum-entropy prior), keeping the matrix row-stochastic.
        """
        counts = self.transition_counts(layer, next_layer).astype(np.float64)
        row = counts.sum(axis=1, keepdims=True)
        out = np.where(row > 0, counts / np.where(row > 0, row, 1.0), 1.0 / self.num_experts)
        return out

    def all_conditional_matrices(self) -> np.ndarray:
        """(L-1, E, E) stack of consecutive-layer affinity matrices."""
        return np.stack(
            [self.conditional_matrix(j) for j in range(self.num_layers - 1)], axis=0
        )

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise to ``.npz`` (paths + metadata)."""
        np.savez_compressed(
            Path(path),
            paths=self.paths,
            num_experts=np.int64(self.num_experts),
            source=np.bytes_(self.source.encode()),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RoutingTrace":
        with np.load(Path(path)) as data:
            return cls(
                paths=data["paths"],
                num_experts=int(data["num_experts"]),
                source=bytes(data["source"]).decode(),
            )

    def to_bytes(self) -> bytes:
        """In-memory npz serialisation (round-trips via :meth:`from_bytes`)."""
        buf = _io.BytesIO()
        np.savez_compressed(
            buf,
            paths=self.paths,
            num_experts=np.int64(self.num_experts),
            source=np.bytes_(self.source.encode()),
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RoutingTrace":
        with np.load(_io.BytesIO(blob)) as data:
            return cls(
                paths=data["paths"],
                num_experts=int(data["num_experts"]),
                source=bytes(data["source"]).decode(),
            )


@dataclass(frozen=True)
class CountTrace:
    """Trace stand-in built from transition-count matrices instead of paths.

    The placement solvers never look at individual token paths — they only
    consume consecutive-layer transition counts (``transition_counts``) and
    the trace shape.  A :class:`CountTrace` provides exactly that interface
    from an (L-1, E, E) count stack, which lets count-native producers (the
    streaming affinity estimator, analytic Markov models) feed the solver
    family without synthesising fake token paths.  Counts may be fractional:
    exponential decay and probability-mass weighting both produce non-integer
    "tokens", and every solver consumes the counts as float64 anyway.

    Operations that genuinely need token paths (``subsample``, locality
    replay) are deliberately absent.
    """

    counts: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.ndim != 3 or counts.shape[1] != counts.shape[2]:
            raise ValueError(
                f"counts must be (layers-1, experts, experts), got {counts.shape}"
            )
        if counts.shape[0] < 1:
            raise ValueError("need at least one layer pair of counts")
        if not np.isfinite(counts).all():
            raise ValueError("transition counts must be finite")
        if counts.size and counts.min() < 0:
            raise ValueError("transition counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def num_layers(self) -> int:
        return self.counts.shape[0] + 1

    @property
    def num_experts(self) -> int:
        return self.counts.shape[1]

    @property
    def total_mass(self) -> float:
        """Summed transition mass across all layer pairs."""
        return float(self.counts.sum())

    def transition_counts(self, layer: int, next_layer: int | None = None) -> np.ndarray:
        """(E, E) counts between ``layer`` and ``layer + 1``.

        Only consecutive pairs are stored; asking for a multi-hop pair
        raises (unlike :class:`RoutingTrace`, the paths needed to estimate
        higher-order dependence were never kept).
        """
        nxt = layer + 1 if next_layer is None else next_layer
        if not 0 <= layer < self.num_layers - 1:
            raise IndexError(f"layer {layer} out of range [0, {self.num_layers - 1})")
        if nxt != layer + 1:
            raise ValueError("CountTrace only stores consecutive-layer transitions")
        return self.counts[layer]

    def conditional_matrix(self, layer: int, next_layer: int | None = None) -> np.ndarray:
        """Formula (1) from the stored counts; unobserved rows are uniform."""
        counts = self.transition_counts(layer, next_layer)
        row = counts.sum(axis=1, keepdims=True)
        return np.where(row > 0, counts / np.where(row > 0, row, 1.0), 1.0 / self.num_experts)
