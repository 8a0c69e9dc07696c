"""Unit tests for SLO-aware admission control."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.placement.vanilla import vanilla_placement
from repro.fleet.admission import (
    SHED_REASONS,
    AdmissionController,
    PriorityClass,
    default_priority_classes,
)
from repro.fleet.replica import Replica
from repro.fleet.requests import FleetRequest


def _replica(max_batch: int = 8) -> Replica:
    return Replica(
        replica_id=0,
        placement=vanilla_placement(4, 8, 4),
        regime=0,
        max_batch_requests=max_batch,
        num_gpus=4,
    )


def _controller(slo_s: float = 1.0, batch_slo_s: float = 10.0, **kwargs):
    classes = (
        PriorityClass("interactive", slo_s, 0),
        PriorityClass("batch", batch_slo_s, 1),
    )
    return AdmissionController(classes, **kwargs)


def _req(priority: int = 0, generate_len: int = 10) -> FleetRequest:
    return FleetRequest(0, 0.0, 8, generate_len, priority=priority)


class TestPriorityClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityClass("x", 0.0, 0)
        with pytest.raises(ValueError):
            PriorityClass("x", 1.0, -1)

    def test_defaults_from_config(self):
        fleet = FleetConfig(slo_ms=250.0, batch_slo_ms=2500.0)
        classes = default_priority_classes(fleet)
        assert [c.name for c in classes] == ["interactive", "batch"]
        assert classes[0].slo_s == pytest.approx(0.25)
        assert classes[1].slo_s == pytest.approx(2.5)


class TestControllerConstruction:
    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            AdmissionController((PriorityClass("a", 1.0, 0), PriorityClass("b", 1.0, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AdmissionController(())

    def test_rejects_bad_knobs(self):
        classes = (PriorityClass("a", 1.0, 0),)
        with pytest.raises(ValueError):
            AdmissionController(classes, shed_slack=0.0)
        with pytest.raises(ValueError):
            AdmissionController(classes, max_queue_per_replica=0)

    def test_from_config(self):
        fleet = FleetConfig(shed_slack=1.5, max_queue_per_replica=32)
        ctrl = AdmissionController.from_config(fleet)
        assert ctrl.shed_slack == 1.5
        assert ctrl.max_queue_per_replica == 32


class TestPrediction:
    def test_cold_replica_predicts_nothing(self):
        assert _controller().predicted_latency_s(_replica(), _req()) is None

    def test_service_plus_queueing(self):
        r = _replica(max_batch=8)
        r.est_step_s = 0.01
        ctrl = _controller()
        # empty queue: pure service = 10 steps x 10ms
        assert ctrl.predicted_latency_s(r, _req()) == pytest.approx(0.1)
        for _ in range(16):
            r.enqueue(_req())
        # 16 queued / cap 8 => two full drain cycles of queueing ahead
        assert ctrl.predicted_latency_s(r, _req()) == pytest.approx(0.1 + 2 * 0.1)

    def test_admits_when_cold(self):
        assert _controller().assess(_req(), _replica(), 0.0) is None


class TestShedding:
    def test_sheds_on_deadline(self):
        r = _replica()
        r.est_step_s = 0.2  # service alone = 2s > slo 1s
        assert _controller().assess(_req(), r, 0.0) == "deadline"

    def test_batch_class_tolerates_more(self):
        r = _replica()
        r.est_step_s = 0.2
        ctrl = _controller()
        assert ctrl.assess(_req(priority=0), r, 0.0) == "deadline"
        assert ctrl.assess(_req(priority=1), r, 0.0) is None  # 2s < 10s

    def test_shed_slack_scales_deadline(self):
        r = _replica()
        r.est_step_s = 0.15  # predicted 1.5s
        assert _controller(shed_slack=2.0).assess(_req(), r, 0.0) is None
        assert _controller(shed_slack=1.0).assess(_req(), r, 0.0) == "deadline"

    def test_queue_cap_is_hard(self):
        r = _replica()
        ctrl = _controller(max_queue_per_replica=4)
        for _ in range(4):
            r.enqueue(_req())
        # even a cold replica (no prediction) sheds once the queue is full
        assert ctrl.assess(_req(), r, 0.0) == "queue-full"

    def test_slo_met(self):
        ctrl = _controller(slo_s=1.0, batch_slo_s=10.0)
        assert ctrl.slo_met(_req(priority=0), 0.9)
        assert not ctrl.slo_met(_req(priority=0), 1.1)
        assert ctrl.slo_met(_req(priority=1), 5.0)

    def test_overflow_priority_maps_to_last_class(self):
        ctrl = _controller()
        assert ctrl.class_of(_req(priority=7)).name == "batch"


def _assess_codes(ctrl, pairs):
    """``assess_codes`` over the array snapshot of (request, replica) pairs,
    mapped back to the scalar path's shed reasons."""
    codes = ctrl.assess_codes(
        np.array([q.generate_len for q, _ in pairs], dtype=np.int64),
        ctrl.slo_by_priority(np.array([q.priority for q, _ in pairs], dtype=np.int64)),
        np.array([r.queue_len for _, r in pairs], dtype=np.int64),
        np.array(
            [np.nan if r.est_step_s is None else r.est_step_s for _, r in pairs],
            dtype=np.float64,
        ),
        np.array([r.max_batch for _, r in pairs], dtype=np.int64),
    )
    return [SHED_REASONS[int(c)] for c in codes]


class TestBatchAssessment:
    """The array admission kernel the tick engine calls must mirror scalar
    ``assess`` exactly."""

    def _loaded_replicas(self):
        cold = _replica()  # est None -> admit unless queue-full
        slow = _replica()
        slow.est_step_s = 0.2  # 10-step request predicts 2s
        full = _replica()
        for _ in range(300):
            full.enqueue(_req())
        return [cold, slow, full]

    def test_matches_scalar_per_pair(self):
        ctrl = _controller()
        replicas = self._loaded_replicas()
        requests = [_req(priority=p, generate_len=g) for p in (0, 1) for g in (1, 10)]
        pairs = [(q, r) for q in requests for r in replicas]
        batch = _assess_codes(ctrl, pairs)
        scalar = [ctrl.assess(q, r, 0.0) for q, r in pairs]
        assert batch == scalar
        assert set(batch) == {None, "deadline", "queue-full"}

    def test_queue_full_wins_over_deadline(self):
        ctrl = _controller(max_queue_per_replica=4)
        r = _replica()
        r.est_step_s = 10.0  # would shed on deadline too
        for _ in range(4):
            r.enqueue(_req())
        assert _assess_codes(ctrl, [(_req(), r)]) == ["queue-full"]
        assert ctrl.assess(_req(), r, 0.0) == "queue-full"
