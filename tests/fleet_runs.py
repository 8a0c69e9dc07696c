"""Helpers for tests that drive the fleet engines (imported by test modules)."""

from __future__ import annotations

import math

from repro import FleetConfig, Scenario, run
from repro.fleet import simulate_fleet_reference, simulate_fleet_tick

#: the two fleet engines by their ``FleetConfig.engine`` names
ENGINES = {"event": simulate_fleet_reference, "tick": simulate_fleet_tick}


def fleet_result(model, cluster, serving, fleet, recorder=None, profiler=None, **spec):
    """The FleetResult ``run()`` returns for a fleet Scenario of these sections.

    ``spec`` sets further Scenario fields (``mode``, ``flash``, ...).
    """
    s = Scenario(
        name="test-fleet", model=model, cluster=cluster, serving=serving, fleet=fleet, **spec
    )
    return run(s, recorder=recorder, profiler=profiler).raw


def one_replica_fleet(num_requests: int) -> FleetConfig:
    """A one-replica tick fleet that sheds nothing, as the serving kinds run."""
    return FleetConfig(
        num_replicas=1, router="round-robin", num_regimes=1, slo_ms=math.inf,
        batch_slo_ms=math.inf, max_queue_per_replica=max(1, num_requests), engine="tick",
    )
