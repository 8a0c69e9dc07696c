"""Collective communication cost models over a :class:`Topology`.

MoE expert parallelism exercises four collectives:

* **Alltoall** — token dispatch/combine between expert-parallel ranks
  (the paper's bottleneck, Section II-A).
* **AllGather** — context replication in ExFlow's context-coherent design
  (one per generation iteration, Section IV-A).
* **AllReduce** — gradient/statistics reduction (training experiments).
* **Broadcast** — weight loading.

Costs follow the standard algorithmic decompositions (pairwise-exchange
Alltoall, ring AllGather/AllReduce, binomial-tree Broadcast) under the
alpha-beta link model, evaluated per-round with the *slowest participating
link* gating each round — the same synchronisation structure NCCL/MPI
implementations exhibit.  Everything is vectorised; no Python loop touches
individual ranks inside a round.

:func:`alltoall_matrix` and :func:`allgather_cost` additionally accept a
*stacked* batch of inputs — a (T, G, G) traffic tensor or a (T, G)
contribution matrix — and return one :class:`CollectiveResult` per slice.
The batched path shares its arithmetic with the single-collective path
(round loops run once across the whole batch), which is what lets the
vectorized engine cost every (iteration, layer) Alltoall of a run in a
handful of numpy passes while remaining bit-identical to costing them one
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import Tier, Topology

__all__ = [
    "CollectiveResult",
    "alltoall_matrix",
    "alltoall_cost",
    "allgather_cost",
    "allreduce_cost",
    "broadcast_cost",
]


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one simulated collective.

    Attributes
    ----------
    op:
        Collective name (``"alltoall"``, ``"allgather"``, ...).
    time_s:
        Simulated wall-clock seconds for the whole operation.
    bytes_by_tier:
        Total payload bytes carried over each :class:`Tier`.
    rounds:
        Number of communication rounds the algorithm used.
    """

    op: str
    time_s: float
    bytes_by_tier: dict[Tier, float] = field(default_factory=dict)
    rounds: int = 0

    @property
    def total_bytes(self) -> float:
        return float(sum(self.bytes_by_tier.values()))

    @property
    def cross_gpu_bytes(self) -> float:
        """Bytes that actually left a GPU (everything except LOCAL)."""
        return float(
            self.bytes_by_tier.get(Tier.INTRA, 0.0) + self.bytes_by_tier.get(Tier.INTER, 0.0)
        )

    @property
    def inter_node_bytes(self) -> float:
        return float(self.bytes_by_tier.get(Tier.INTER, 0.0))

    def combine(self, other: "CollectiveResult", op: str | None = None) -> "CollectiveResult":
        """Sequential composition of two collectives (times add)."""
        merged = dict(self.bytes_by_tier)
        for tier, b in other.bytes_by_tier.items():
            merged[tier] = merged.get(tier, 0.0) + b
        return CollectiveResult(
            op=op or f"{self.op}+{other.op}",
            time_s=self.time_s + other.time_s,
            bytes_by_tier=merged,
            rounds=self.rounds + other.rounds,
        )


ZERO_RESULT = CollectiveResult(op="noop", time_s=0.0, bytes_by_tier={}, rounds=0)
_TIERS = tuple(Tier)


def _check_bytes(arr: np.ndarray, what: str) -> None:
    """Reject payloads that cannot be priced: NaN, infinite or negative bytes."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    if (arr < 0).any():
        raise ValueError(f"{what} must be non-negative")


def _alltoall_batched(
    topo: Topology, stack: np.ndarray
) -> tuple[np.ndarray, list[dict[Tier, float]], int]:
    """Cost a (T, G, G) traffic stack; returns (times, per-slice tier bytes, rounds).

    One pairwise-exchange round loop covers the whole batch: round ``r``
    gathers every slice's (rank, (rank + r) mod G) payloads into a (T, G)
    matrix with one flat-index take (:attr:`Topology.alltoall_rounds`) and
    reduces over the rank axis.  Idle pairs are masked to 0.0 before the
    max; every priced pair costs ``>= 0`` on finite input, so the round
    time equals the max over active pairs and an idle round adds exactly
    0.0, matching the single-collective skip.  The loop stays per round:
    gathering all rounds at once would materialise a (T, G-1, G) copy of
    the stack several times over.
    """
    g = topo.num_gpus
    t_count = stack.shape[0]
    if g == 1:
        times = np.zeros(t_count)
        tier_bytes = [{Tier.LOCAL: float(stack[i].sum())} for i in range(t_count)]
        return times, tier_bytes, 0

    flat = stack.reshape(t_count, g * g)
    times = np.zeros(t_count)
    for idx, lat, inv_bw in topo.alltoall_rounds:
        nbytes = flat.take(idx, axis=1)  # (T, G)
        per_pair = lat + nbytes * inv_bw
        times += np.where(nbytes > 0, per_pair, 0.0).max(axis=1)

    # ``take`` yields C-contiguous rows, so each slice's sum is reduced in
    # the same order as a single call's (a boolean-mask gather would not be)
    columns = [flat.take(idx, axis=1).sum(axis=1).tolist() for idx in topo.tier_pairs]
    tier_bytes = [dict(zip(_TIERS, row, strict=True)) for row in zip(*columns, strict=True)]
    return times, tier_bytes, g - 1


def alltoall_matrix(
    topo: Topology, traffic: np.ndarray
) -> CollectiveResult | list[CollectiveResult]:
    """Personalised Alltoall with an arbitrary (G, G) byte matrix.

    ``traffic[a, b]`` = payload bytes rank ``a`` must deliver to rank ``b``.
    Diagonal entries stay local and cost nothing — this is exactly why
    affinity-aware placement helps: it concentrates mass on the diagonal
    (same GPU) and the intra-node blocks.

    Algorithm: G-1 pairwise-exchange rounds.  In round ``r`` every rank ``i``
    sends to ``(i + r) mod G`` and receives from ``(i - r) mod G``; the round
    completes when the slowest transfer finishes.

    A stacked (T, G, G) input costs T independent Alltoalls in one batched
    pass and returns a list of T results, one per slice, each identical to
    what the corresponding single (G, G) call would produce.
    """
    arr = np.asarray(traffic, dtype=np.float64)
    g = topo.num_gpus
    if arr.ndim == 2:
        if arr.shape != (g, g):
            raise ValueError(f"traffic must be ({g}, {g}), got {arr.shape}")
        _check_bytes(arr, "traffic bytes")
        times, tier_bytes, rounds = _alltoall_batched(topo, arr[None])
        return CollectiveResult("alltoall", float(times[0]), tier_bytes[0], rounds)
    if arr.ndim == 3:
        if arr.shape[1:] != (g, g):
            raise ValueError(
                f"stacked traffic must be (T, {g}, {g}), got {arr.shape}"
            )
        _check_bytes(arr, "traffic bytes")
        times, tier_bytes, rounds = _alltoall_batched(topo, arr)
        return [
            CollectiveResult("alltoall", float(times[i]), tier_bytes[i], rounds)
            for i in range(arr.shape[0])
        ]
    raise ValueError(f"traffic must be (G, G) or (T, G, G), got shape {arr.shape}")


def alltoall_cost(topo: Topology, bytes_per_pair: float) -> CollectiveResult:
    """Uniform Alltoall where every off-diagonal pair exchanges equal bytes.

    Convenience wrapper for analytic comparisons (Table I): each of the G
    ranks sends ``bytes_per_pair`` to each of the other G-1 ranks.
    """
    if bytes_per_pair < 0:
        raise ValueError("bytes_per_pair must be >= 0")
    g = topo.num_gpus
    traffic = np.full((g, g), float(bytes_per_pair))
    np.fill_diagonal(traffic, 0.0)
    return alltoall_matrix(topo, traffic)


def _allgather_batched(
    topo: Topology, contrib: np.ndarray
) -> tuple[np.ndarray, list[dict[Tier, float]], int]:
    """Cost a (T, G) contribution stack; returns (times, per-slice tier bytes, rounds)."""
    g = topo.num_gpus
    t_count = contrib.shape[0]
    if g == 1:
        times = np.zeros(t_count)
        tier_bytes = [{Tier.LOCAL: float(contrib[i].sum())} for i in range(t_count)]
        return times, tier_bytes, 0

    ranks = np.arange(g)
    nxt = (ranks + 1) % g
    lat = topo.latency_matrix[ranks, nxt]
    inv_bw = topo.inv_bandwidth_matrix[ranks, nxt]
    tiers = topo.tier_matrix[ranks, nxt]
    links = {t: np.flatnonzero(tiers == t) for t in Tier if (tiers == t).any()}

    times = np.zeros(t_count)
    acc = {t: np.zeros(t_count) for t in links}
    for s in range(g - 1):
        chunk = contrib.take((ranks - s) % g, axis=1)  # (T, G), C-contiguous
        per_link = lat + chunk * inv_bw
        times += np.where(chunk > 0, per_link, 0.0).max(axis=1)
        for t, idx in links.items():
            acc[t] += chunk.take(idx, axis=1).sum(axis=1)

    columns = {t: a.tolist() for t, a in acc.items()}
    tier_bytes = [
        {t: col[i] for t, col in columns.items() if col[i] > 0} for i in range(t_count)
    ]
    return times, tier_bytes, g - 1


def allgather_cost(
    topo: Topology, bytes_per_rank: np.ndarray | float
) -> CollectiveResult | list[CollectiveResult]:
    """Ring AllGather where rank ``i`` contributes ``bytes_per_rank[i]``.

    G-1 steps; in step ``s`` rank ``i`` forwards the chunk that originated
    at rank ``(i - s) mod G`` to rank ``(i + 1) mod G``.  Heterogeneous
    contributions are supported because ExFlow's per-iteration context
    AllGather carries each GPU's newly generated tokens, which can differ.

    A stacked (T, G) input costs T independent AllGathers in one batched
    pass and returns a list of T results.
    """
    g = topo.num_gpus
    arr = np.asarray(bytes_per_rank, dtype=np.float64)
    if arr.ndim <= 1:
        contrib = np.broadcast_to(arr, (g,)).copy()
        _check_bytes(contrib, "bytes_per_rank")
        times, tier_bytes, rounds = _allgather_batched(topo, contrib[None])
        return CollectiveResult("allgather", float(times[0]), tier_bytes[0], rounds)
    if arr.ndim == 2:
        if arr.shape[1] != g:
            raise ValueError(f"stacked contributions must be (T, {g}), got {arr.shape}")
        _check_bytes(arr, "bytes_per_rank")
        times, tier_bytes, rounds = _allgather_batched(topo, arr)
        return [
            CollectiveResult("allgather", float(times[i]), tier_bytes[i], rounds)
            for i in range(arr.shape[0])
        ]
    raise ValueError(f"bytes_per_rank must be scalar, (G,) or (T, G), got {arr.shape}")


def allreduce_cost(topo: Topology, nbytes: float) -> CollectiveResult:
    """Ring AllReduce of an ``nbytes`` buffer (reduce-scatter + allgather).

    2(G-1) steps, each moving an ``nbytes / G`` chunk along the ring.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    g = topo.num_gpus
    if g == 1 or nbytes == 0:
        return CollectiveResult("allreduce", 0.0, {}, 0)

    ranks = np.arange(g)
    nxt = (ranks + 1) % g
    lat = topo.latency_matrix[ranks, nxt]
    inv_bw = topo.inv_bandwidth_matrix[ranks, nxt]
    tiers = topo.tier_matrix[ranks, nxt]

    chunk = nbytes / g
    step_time = float((lat + chunk * inv_bw).max())
    steps = 2 * (g - 1)
    total = steps * step_time

    bytes_by_tier: dict[Tier, float] = {}
    for t in Tier:
        count = int((tiers == t).sum())
        if count:
            bytes_by_tier[Tier(t)] = count * chunk * steps
    return CollectiveResult("allreduce", total, bytes_by_tier, rounds=steps)


def broadcast_cost(topo: Topology, nbytes: float, root: int = 0) -> CollectiveResult:
    """Binomial-tree Broadcast of ``nbytes`` from ``root``.

    ceil(log2 G) rounds; round ``k`` doubles the set of ranks holding the
    data.  Partner choice is rank-order, which on a node-contiguous layout
    sends the early (big) hops across nodes and later hops over NVLink —
    matching typical NCCL tree construction.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    g = topo.num_gpus
    if g == 1 or nbytes == 0:
        return CollectiveResult("broadcast", 0.0, {}, 0)
    if not 0 <= root < g:
        raise IndexError(f"root {root} out of range")

    # relabel so the root is rank 0 in the tree
    order = (np.arange(g) + root) % g
    total = 0.0
    bytes_by_tier: dict[Tier, float] = {}
    rounds = 0
    have = 1
    while have < g:
        senders = order[:have]
        receivers = order[have : min(2 * have, g)]
        senders = senders[: len(receivers)]
        lat = topo.latency_matrix[senders, receivers]
        inv_bw = topo.inv_bandwidth_matrix[senders, receivers]
        tiers = topo.tier_matrix[senders, receivers]
        total += float((lat + nbytes * inv_bw).max())
        for t in Tier:
            count = int((tiers == t).sum())
            if count:
                bytes_by_tier[Tier(t)] = bytes_by_tier.get(Tier(t), 0.0) + count * nbytes
        have += len(receivers)
        rounds += 1

    return CollectiveResult("broadcast", total, bytes_by_tier, rounds=rounds)
