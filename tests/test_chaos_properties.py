"""Property test: chaos never double-counts or drops a request.

Under any crash/preemption schedule and retry budget, every submitted
request must end in exactly one terminal ledger — completed, shed, or
lost — in *both* fleet engines, and the two engines must agree exactly.
Hypothesis drives the fault schedule (times, targets, grace periods,
retry budget, brownouts, recovery on/off); the conservation law and the
engine-equivalence contract are the invariants.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    BrownoutSpec,
    ChaosSpec,
    CrashSpec,
    PreemptSpec,
    RetryPolicy,
)
from repro.config import ClusterConfig, FleetConfig, ModelConfig, ServingConfig
from fleet_runs import fleet_result

MODEL = ModelConfig(
    name="chaos-prop-test", num_layers=4, num_experts=8, d_model=64, num_heads=4
)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=2)
# hot enough that queues are non-empty when faults land, small enough for
# ~a dozen Hypothesis examples to stay CI-sized
SERVING = ServingConfig(
    arrival="bursty",
    arrival_rate_rps=12000.0,
    num_requests=80,
    generate_len=6,
    max_batch_requests=4,
    prompt_len=8,
    seed=0,
)
NUM_REPLICAS = 2
# the run's simulated horizon is ~0.01-0.05 s; draw fault times across and
# slightly past it so no-op schedules (fault after the run ends, or on an
# already-dead replica) are generated too
TIMES = st.floats(min_value=0.0, max_value=0.06, allow_nan=False)

crashes = st.lists(
    st.builds(
        CrashSpec, time_s=TIMES, replica=st.integers(0, NUM_REPLICAS - 1)
    ),
    max_size=3,
)
preemptions = st.lists(
    st.builds(
        PreemptSpec,
        time_s=TIMES,
        replica=st.integers(0, NUM_REPLICAS - 1),
        grace_s=st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
    ),
    max_size=2,
)
brownouts = st.lists(
    st.builds(
        BrownoutSpec,
        start_s=TIMES,
        duration_s=st.floats(
            min_value=0.001, max_value=0.02, allow_nan=False
        ),
        replica=st.integers(0, NUM_REPLICAS - 1),
        factor=st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
    ),
    max_size=2,
)
retries = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 3),
    backoff_base_s=st.floats(
        min_value=0.0, max_value=0.005, allow_nan=False
    ),
    backoff_factor=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
    attempt_timeout_s=st.one_of(
        st.none(),
        st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
    ),
)
chaos_specs = st.builds(
    ChaosSpec,
    crashes=st.builds(tuple, crashes),
    preemptions=st.builds(tuple, preemptions),
    brownouts=st.builds(tuple, brownouts),
    retry=retries,
    recover=st.booleans(),
)


def _terminal_ids(result):
    return (
        [c.request.req_id for c in result.completed]
        + [s.request.req_id for s in result.shed]
        + [lo.request.req_id for lo in result.lost]
    )


@settings(max_examples=12, deadline=None)
@given(chaos=chaos_specs, migrate=st.booleans())
def test_requests_conserved_and_engines_agree(chaos: ChaosSpec, migrate: bool):
    fleet = FleetConfig(
        num_replicas=NUM_REPLICAS,
        router="p2c",
        num_regimes=2,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=64,
        migrate_on_drain=migrate,
        chaos=chaos,
    )
    event = fleet_result(
        MODEL, CLUSTER, SERVING, dataclasses.replace(fleet, engine="event")
    )
    tick = fleet_result(
        MODEL, CLUSTER, SERVING, dataclasses.replace(fleet, engine="tick")
    )
    for result in (event, tick):
        ids = _terminal_ids(result)
        # one terminal outcome per submitted request: nothing lost twice,
        # nothing both completed and lost, nothing silently dropped
        assert len(ids) == SERVING.num_requests
        assert len(set(ids)) == SERVING.num_requests
        # a request that exhausted its retries must have attempted at most
        # the policy's budget
        for lo in result.lost:
            assert 1 <= lo.attempts <= chaos.retry.max_attempts
    assert tick == event
