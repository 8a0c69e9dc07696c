"""Observation-only telemetry for the simulators.

Six pieces, all optional and all zero-cost when absent:

* :mod:`repro.obs.recorder` — :class:`MetricsRecorder`, the engine hook
  surface as a no-op base class (its hook names are :data:`HOOKS`);
  :class:`TimelineRecorder`, which turns the engines' event hooks into
  per-window metric time-series and request/replica lifecycle spans; and
  :class:`TeeRecorder`, which fans one hook stream out to several
  recorders.
* :mod:`repro.obs.slo` — :class:`SloSpec` service objectives and the
  multi-window burn-rate evaluator that folds a timeline into typed
  :class:`AlertSpan`\\ s.
* :mod:`repro.obs.detect` — :class:`SignalDetector`, an online
  outage/brownout detector over the benign hook stream, scored against
  chaos ground truth by :func:`score_against_chaos`.
* :mod:`repro.obs.export` — OpenMetrics text exposition of a report plus
  the strict parser CI round-trips artifacts through.
* :mod:`repro.obs.trace` — Chrome-trace (``chrome://tracing`` /
  Perfetto) JSON export plus a structural validator used by tests & CI.
* :mod:`repro.obs.profile` — :class:`PhaseProfiler`, wall-clock phase
  timers (routing vs admission vs step pricing vs bookkeeping) for the
  fleet engines; published as ``BENCH_profile.json``.

The oracle-safety contract: recording is *observation only*.  Hooks may
read simulated state but never draw rng samples, never change float
evaluation order, and never feed anything back into the simulation — so
the bit-identical event/tick fleet contract survives with telemetry
attached (``tests/test_fleet_equivalence.py`` enforces this).
"""

from repro.obs.detect import (
    ObservedBrownout,
    ObservedOutage,
    SignalDetector,
    score_against_chaos,
)
from repro.obs.export import openmetrics_text, parse_openmetrics
from repro.obs.profile import MEASURED_PHASES, PROFILE_PHASES, PhaseProfile, PhaseProfiler
from repro.obs.recorder import HOOKS, MetricsRecorder, TeeRecorder, TimelineRecorder, run_meta
from repro.obs.slo import (
    ALERT_SEVERITIES,
    ALERT_SIGNALS,
    DEFAULT_BURN_WINDOWS,
    AlertSpan,
    BurnWindowSpec,
    SloClassOverride,
    SloSpec,
    compliance_summary,
    evaluate_burn_alerts,
)
from repro.obs.trace import chrome_trace, validate_chrome_trace, write_chrome_trace

__all__ = [
    "HOOKS",
    "MetricsRecorder",
    "TeeRecorder",
    "TimelineRecorder",
    "run_meta",
    "PhaseProfiler",
    "PhaseProfile",
    "MEASURED_PHASES",
    "PROFILE_PHASES",
    "ALERT_SEVERITIES",
    "ALERT_SIGNALS",
    "DEFAULT_BURN_WINDOWS",
    "AlertSpan",
    "BurnWindowSpec",
    "SloClassOverride",
    "SloSpec",
    "compliance_summary",
    "evaluate_burn_alerts",
    "ObservedBrownout",
    "ObservedOutage",
    "SignalDetector",
    "score_against_chaos",
    "openmetrics_text",
    "parse_openmetrics",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
