"""Simulated GPU cluster substrate.

This package replaces the paper's physical testbed (multi-node A100 servers
with NVLink and InfiniBand) with an explicit model:

* :mod:`repro.cluster.topology` — the hardware hierarchy: GPUs grouped into
  nodes, nodes joined by an inter-node fabric, with per-tier
  :class:`~repro.config.LinkSpec` performance.
* :mod:`repro.cluster.collectives` — cost models and data-movement
  simulation for the collectives MoE inference uses (Alltoall, AllGather,
  AllReduce, Broadcast), following mpi4py/NCCL algorithmic structure.
* :mod:`repro.cluster.traffic` — per-tier byte and time accounting across
  a whole simulated run.
"""

from repro.cluster.topology import Topology, Tier
from repro.cluster.collectives import (
    CollectiveResult,
    alltoall_cost,
    allgather_cost,
    allreduce_cost,
    broadcast_cost,
    alltoall_matrix,
)
from repro.cluster.traffic import TrafficLedger

__all__ = [
    "Topology",
    "Tier",
    "CollectiveResult",
    "alltoall_cost",
    "allgather_cost",
    "allreduce_cost",
    "broadcast_cost",
    "alltoall_matrix",
    "TrafficLedger",
]
