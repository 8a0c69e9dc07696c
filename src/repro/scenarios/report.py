"""The unified result schema every scenario kind reports into.

Whatever simulator a :class:`~repro.scenarios.spec.Scenario` dispatches
to, the caller gets one :class:`SimReport`: shared latency / throughput /
kept-mass / shed / cost fields, with per-mode extensions in ``extra`` and
the full underlying result object on ``raw`` for callers that need every
detail: the engine's ``FleetResult`` for the serving, online (an
``OnlineServingResult``) and fleet kinds, the ``compare_modes`` row dict
for batch.  Fields that don't apply to a kind hold their zero values — a
batch run has no latency distribution, a serving run sheds nothing — so
sweep output is always rectangular.

Cost fields close the ROADMAP's accounting item: every report prices the
GPU-hours its scenario consumed (``ClusterConfig.gpu_hour_usd``) and
normalises to dollars per million generated tokens, so autoscaler arms —
or any two scenarios — can be compared on spend next to p95.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from repro.scenarios.spec import SCENARIO_KINDS

__all__ = ["SimReport"]


@dataclass(frozen=True)
class SimReport:
    """Outcome of one scenario run, in one schema for all four kinds."""

    scenario: str
    kind: str  # batch | serving | online | fleet

    # shared throughput account
    completed: int = 0
    generated_tokens: int = 0
    makespan_s: float = 0.0
    decode_steps: int = 0
    mean_batch_size: float = 0.0
    throughput_rps: float = 0.0
    throughput_tokens_per_s: float = 0.0

    # latency distribution (zero for batch runs — lockstep has no queueing)
    latency_mean_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    queue_p95_s: float = 0.0
    # fixed-bucket latency histogram: upper-edge label -> count (see
    # repro.engine.metrics.LATENCY_HIST_EDGES_S); empty for batch runs
    latency_hist: dict = field(default_factory=dict)

    # placement / drift account (online + fleet)
    kept_mass_initial: float | None = None
    kept_mass_final: float | None = None
    num_replacements: int = 0
    migration_stall_s: float = 0.0

    # fleet account
    shed: int = 0
    shed_fraction: float = 0.0
    slo_attainment: dict = field(default_factory=dict)
    peak_replicas: int = 0
    scale_ups: int = 0

    # chaos account (zero/ideal defaults so pre-chaos reports still load)
    failures: int = 0
    lost: int = 0
    retries: int = 0
    availability: float = 1.0
    goodput_rps: float = 0.0
    mean_time_to_recover_s: float = 0.0

    # SLO monitoring account (populated when telemetry.slo is set; empty
    # defaults so pre-SLO reports still load).  ``slo`` is the compliance
    # summary, ``alerts`` the burn-rate AlertSpan dicts, ``detection`` the
    # observed outage/brownout record plus chaos ground-truth scoring.
    slo: dict = field(default_factory=dict)
    alerts: list = field(default_factory=list)
    detection: dict = field(default_factory=dict)

    # cost account (GPU-hour pricing from ClusterConfig.gpu_hour_usd)
    gpu_hours: float = 0.0
    cost_usd: float = 0.0
    usd_per_million_tokens: float = 0.0

    # per-mode extensions (e.g. batch comparisons: speedups, comm shares)
    extra: dict = field(default_factory=dict)

    # per-window metric timeline (scenarios run with a telemetry section);
    # the nested document a TimelineRecorder.timeline() returns, or None
    timeline: dict | None = field(default=None, repr=False)

    # the full underlying result object; excluded from serde and equality
    raw: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}")

    def is_finite(self) -> bool:
        """True when every numeric field (incl. extras) is a finite number.

        Nested non-numeric values (the ``timeline`` document's lists,
        string labels in dicts) are skipped, not rejected.
        """
        values = []
        for f in fields(self):
            if f.name in ("raw", "timeline"):
                continue
            v = getattr(self, f.name)
            if isinstance(v, dict):
                values.extend(v.values())
            else:
                values.append(v)
        for v in values:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                continue
            if not math.isfinite(v):
                return False
        return True

    def to_dict(self) -> dict:
        """JSON-ready dict of every field except ``raw``."""
        out = {}
        for f in fields(self):
            if f.name == "raw":
                continue
            v = getattr(self, f.name)
            out[f.name] = dict(v) if isinstance(v, dict) else v
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        """Rebuild a report from :meth:`to_dict` output (``raw`` stays None).

        Unknown keys are rejected so a mistyped field name in a hand-edited
        report fails loudly instead of silently dropping data.
        """
        known = {f.name for f in fields(cls) if f.name != "raw"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimReport field(s) {sorted(unknown)}")
        return cls(**{k: data[k] for k in data})

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        return cls.from_dict(json.loads(text))
