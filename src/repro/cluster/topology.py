"""Hardware topology graph for the simulated cluster.

The topology mirrors the paper's Wilkes3 testbed structure: GPUs are leaves,
grouped under node switches (NVLink domains), which hang off a single
cluster fabric (InfiniBand).  A :class:`Topology` wraps a
:class:`~repro.config.ClusterConfig` with:

* a :mod:`networkx` graph (useful for visualisation and path queries),
* vectorised tier / distance matrices used on hot paths, and
* helpers mapping GPU ranks to nodes and link tiers.

Communication cost never walks the graph at simulation time — the tier
matrix is precomputed so collectives can classify a whole Alltoall traffic
matrix with pure numpy indexing.
"""

from __future__ import annotations

from enum import IntEnum
from functools import cached_property

import networkx as nx
import numpy as np

from repro.config import ClusterConfig, LinkSpec

__all__ = ["Tier", "Topology"]


class Tier(IntEnum):
    """Communication tier between two GPU ranks, ordered by cost.

    ``LOCAL`` — same GPU (HBM-resident move, effectively free).
    ``INTRA`` — same node, different GPU (NVLink).
    ``INTER`` — different nodes (InfiniBand).
    """

    LOCAL = 0
    INTRA = 1
    INTER = 2


class Topology:
    """Queryable model of the cluster's communication hierarchy.

    Parameters
    ----------
    cluster:
        Shape and link performance of the simulated machine.

    Notes
    -----
    The heavy artefacts (tier matrix, node-of vector, graph) are cached
    properties — built once on first use, shared by all consumers.
    """

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster

    # -- identity ---------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return self.cluster.num_gpus

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    @property
    def gpus_per_node(self) -> int:
        return self.cluster.gpus_per_node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.num_nodes} nodes x {self.gpus_per_node} GPUs, "
            f"intra={self.cluster.intra_link.name}, inter={self.cluster.inter_link.name})"
        )

    # -- vectorised structure ---------------------------------------------

    @cached_property
    def node_of_gpu(self) -> np.ndarray:
        """``node_of_gpu[g]`` is the node index of GPU rank ``g``."""
        return np.arange(self.num_gpus) // self.gpus_per_node

    @cached_property
    def tier_matrix(self) -> np.ndarray:
        """``tier_matrix[a, b]`` is the :class:`Tier` between ranks a and b."""
        nodes = self.node_of_gpu
        same_node = nodes[:, None] == nodes[None, :]
        tiers = np.where(same_node, Tier.INTRA, Tier.INTER).astype(np.int8)
        np.fill_diagonal(tiers, Tier.LOCAL)
        return tiers

    def tier(self, gpu_a: int, gpu_b: int) -> Tier:
        """Communication tier for a transfer from ``gpu_a`` to ``gpu_b``."""
        return Tier(int(self.tier_matrix[gpu_a, gpu_b]))

    def link(self, gpu_a: int, gpu_b: int) -> LinkSpec:
        """Alpha-beta link spec between two ranks."""
        return self.link_for_tier(self.tier(gpu_a, gpu_b))

    def link_for_tier(self, tier: Tier) -> LinkSpec:
        if tier is Tier.LOCAL:
            return self.cluster.local_link
        if tier is Tier.INTRA:
            return self.cluster.intra_link
        return self.cluster.inter_link

    @cached_property
    def latency_matrix(self) -> np.ndarray:
        """Per-pair alpha (seconds) — useful for vectorised cost sums."""
        lat = np.array(
            [
                self.cluster.local_link.latency_s,
                self.cluster.intra_link.latency_s,
                self.cluster.inter_link.latency_s,
            ]
        )
        return lat[self.tier_matrix]

    @cached_property
    def inv_bandwidth_matrix(self) -> np.ndarray:
        """Per-pair beta (seconds/byte)."""
        inv_bw = np.array(
            [
                1.0 / self.cluster.local_link.bandwidth_Bps,
                1.0 / self.cluster.intra_link.bandwidth_Bps,
                1.0 / self.cluster.inter_link.bandwidth_Bps,
            ]
        )
        return inv_bw[self.tier_matrix]

    @cached_property
    def tier_pairs(self) -> tuple[np.ndarray, ...]:
        """Flat ``src * G + dst`` indices of the rank pairs in each :class:`Tier`."""
        flat = self.tier_matrix.ravel()
        return tuple(np.flatnonzero(flat == t) for t in Tier)

    @cached_property
    def alltoall_rounds(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per-round tables of the pairwise-exchange Alltoall.

        Entry ``r - 1`` belongs to round ``r`` (rank ``i`` sends to
        ``(i + r) mod G``) and holds the flat ``src * G + dst`` index of each
        rank's pair plus that pair's latency and inverse bandwidth, so a
        round reads its (T, G) payloads with one gather.
        """
        g = self.num_gpus
        ranks = np.arange(g)
        rounds = []
        for r in range(1, g):
            dst = (ranks + r) % g
            rounds.append(
                (ranks * g + dst, self.latency_matrix[ranks, dst],
                 self.inv_bandwidth_matrix[ranks, dst])
            )
        return tuple(rounds)

    # -- grouping helpers ---------------------------------------------------

    def gpus_of_node(self, node: int) -> np.ndarray:
        """Global GPU ranks on ``node`` as an integer array."""
        return np.asarray(self.cluster.gpus_of_node(node), dtype=np.int64)

    def node_groups(self) -> list[np.ndarray]:
        """GPU ranks grouped by node, in node order."""
        return [self.gpus_of_node(n) for n in range(self.num_nodes)]

    def classify_bytes(self, traffic: np.ndarray) -> dict[Tier, float]:
        """Partition a (G, G) byte matrix into per-tier totals.

        ``traffic[a, b]`` is the number of bytes rank ``a`` sends to rank
        ``b``.  Returns total bytes carried by each tier.
        """
        traffic = np.asarray(traffic, dtype=np.float64)
        if traffic.shape != (self.num_gpus, self.num_gpus):
            raise ValueError(
                f"traffic matrix must be ({self.num_gpus}, {self.num_gpus}), got {traffic.shape}"
            )
        if (traffic < 0).any():
            raise ValueError("traffic bytes must be non-negative")
        tiers = self.tier_matrix
        return {t: float(traffic[tiers == t].sum()) for t in Tier}

    # -- graph view ---------------------------------------------------------

    @cached_property
    def graph(self) -> nx.Graph:
        """networkx view: GPU leaves, node switches, one fabric root.

        Edge attribute ``tier`` names the link class; ``link`` carries the
        :class:`~repro.config.LinkSpec`.  Used for topology-aware debugging
        and the examples, never on the simulation hot path.
        """
        g = nx.Graph()
        g.add_node("fabric", kind="switch")
        for node in range(self.num_nodes):
            sw = f"node{node}"
            g.add_node(sw, kind="node")
            g.add_edge(sw, "fabric", tier="inter", link=self.cluster.inter_link)
            for gpu in self.cluster.gpus_of_node(node):
                leaf = f"gpu{gpu}"
                g.add_node(leaf, kind="gpu", rank=gpu, node=node)
                g.add_edge(leaf, sw, tier="intra", link=self.cluster.intra_link)
        return g

    def hop_path(self, gpu_a: int, gpu_b: int) -> list[str]:
        """Graph path between two GPU leaves (for inspection)."""
        return nx.shortest_path(self.graph, f"gpu{gpu_a}", f"gpu{gpu_b}")
