"""The declarative scenario spec: one frozen, serializable object per run.

A :class:`Scenario` is the single source of truth for everything a
simulation needs — model preset, cluster shape, traffic, drift, placement
policy, optional online-replacement and fleet sections.  Which simulator
executes it is *derived* from which sections are present (see
:attr:`Scenario.kind`), so adding a scenario never means learning a new
entry point:

========  =====================================================
kind      sections present
========  =====================================================
batch     ``batch`` (lockstep three-way engine comparison)
serving   ``serving`` (single replica, continuous batching)
online    ``serving`` + ``drift`` and/or ``replacement``
fleet     ``serving`` + ``fleet`` (router/admission/autoscaler)
========  =====================================================

Scenarios are frozen dataclasses all the way down (model, cluster, links,
policies), so they are hashable, comparable, picklable (the sweep runner
ships them to worker processes) and JSON round-trippable:
``Scenario.from_dict(s.to_dict()) == s`` holds exactly for every valid
spec, which is what makes ``repro run --scenario file.json`` a faithful
reproduction vehicle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
import typing
from dataclasses import dataclass
from enum import Enum

from repro.chaos.spec import ChaosSpec
from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    InferenceConfig,
    ModelConfig,
    ServingConfig,
    _reject_nonfinite,
)
from repro.core.online import ReplacementPolicy
from repro.core.placement.registry import SOLVERS
from repro.engine.workload import DRIFT_KINDS
from repro.obs.slo import SloSpec

__all__ = [
    "DriftSpec",
    "ReplacementSpec",
    "FlashCrowdSpec",
    "TelemetrySpec",
    "Scenario",
    "REGIME_MIXES",
    "SCENARIO_KINDS",
]

SCENARIO_KINDS: tuple[str, ...] = ("batch", "serving", "online", "fleet")

#: How a fleet scenario's arrival stream is split across routing regimes:
#: ``uniform`` is a stationary equal mix, ``diurnal`` rotates a two-regime
#: cosine mixture once over the serving horizon (fig16a's traffic).
REGIME_MIXES: tuple[str, ...] = ("uniform", "diurnal")


@dataclass(frozen=True)
class DriftSpec:
    """Routing drift over the serving horizon (see ``make_drift_scenario``)."""

    kind: str = "abrupt"

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(
                f"unknown drift kind {self.kind!r}; choose from {DRIFT_KINDS}"
            )


@dataclass(frozen=True)
class ReplacementSpec:
    """Online re-placement arm: the trigger policy plus its estimator window."""

    policy: ReplacementPolicy = ReplacementPolicy()
    halflife_tokens: float | None = None

    def __post_init__(self) -> None:
        # +inf is legal ("never forget"); ``not h > 0`` also catches NaN
        if self.halflife_tokens is not None and not self.halflife_tokens > 0:
            raise ValueError(
                f"halflife_tokens must be positive when set, got {self.halflife_tokens}"
            )


@dataclass(frozen=True)
class TelemetrySpec:
    """Observability attachment: per-window timelines, spans, self-profiling.

    Mirrors the :class:`repro.obs.recorder.TimelineRecorder` constructor —
    ``window_s=None`` enables the deterministic auto-sizing window,
    ``spans=False`` keeps timelines but drops Chrome-trace span logging,
    ``max_span_events`` bounds span memory.  ``profile=True`` additionally
    attaches a :class:`repro.obs.profile.PhaseProfiler` (the phase timers
    live in the fleet engines, which run every kind but batch) and reports
    the phase breakdown in ``SimReport.extra``.

    ``slo`` attaches a :class:`repro.obs.slo.SloSpec` (fleet scenarios
    only — burn signals need the fleet's shed/availability semantics):
    ``run`` then evaluates burn-rate alerts over the recorded timeline,
    runs the :class:`repro.obs.detect.SignalDetector` on the hook stream,
    and fills ``SimReport.slo`` / ``alerts`` / ``detection``.
    """

    window_s: float | None = None
    max_windows: int = 128
    spans: bool = True
    max_span_events: int = 20_000
    profile: bool = False
    slo: SloSpec | None = None

    def __post_init__(self) -> None:
        if self.window_s is not None and not self.window_s > 0.0:
            raise ValueError("telemetry window_s must be > 0 when set")
        if self.max_windows < 2:
            raise ValueError("telemetry max_windows must be >= 2")
        if self.max_span_events < 0:
            raise ValueError("telemetry max_span_events must be >= 0")
        if self.slo is not None and not isinstance(self.slo, SloSpec):
            raise TypeError("telemetry slo must be a SloSpec")


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A rate spike in the arrival process (fleet scenarios only)."""

    factor: float = 4.0
    start_s: float = 0.05
    duration_s: float = 0.03

    def __post_init__(self) -> None:
        _reject_nonfinite(self)
        if self.factor < 1.0:
            raise ValueError("flash factor must be >= 1")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("flash window must have start >= 0 and positive duration")


# -- generic dataclass <-> dict serde -----------------------------------------
#
# All scenario sections are frozen dataclasses whose fields are scalars,
# Enums, or further such dataclasses, so one recursive encoder/decoder
# covers the whole tree.  Types are read from the dataclass definitions,
# which keeps the serde in lockstep with the configs without a parallel
# schema.


def _encode(obj: object) -> object:
    if isinstance(obj, Enum):  # before str: GatingKind/ExecutionMode are str enums
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):  # chaos schedules: tuples of specs
        return [_encode(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize scenario field of type {type(obj).__name__}")


def _decode(tp: typing.Any, data: typing.Any, where: str) -> typing.Any:
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if data is None:
            return None
        if len(args) != 1:
            raise TypeError(f"{where}: unsupported union type {tp}")
        return _decode(args[0], data, where)
    if origin is tuple:
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            if not isinstance(data, list):
                raise ValueError(
                    f"{where}: expected a list, got {type(data).__name__}"
                )
            return tuple(
                _decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(data)
            )
        raise TypeError(f"{where}: unsupported tuple type {tp}")
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(data)
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected a mapping for {tp.__name__}")
        hints = typing.get_type_hints(tp)
        known = {f.name for f in dataclasses.fields(tp)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"{where}: unknown {tp.__name__} field(s) {sorted(unknown)}"
            )
        kwargs = {}
        for f in dataclasses.fields(tp):
            if not f.init:
                continue
            if f.name in data:
                kwargs[f.name] = _decode(
                    hints[f.name], data[f.name], f"{where}.{f.name}"
                )
        return tp(**kwargs)
    # scalar leaves: reject mistyped JSON here, at decode time, so a
    # hand-edited spec fails with a field path instead of deep in a run
    if tp is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise ValueError(f"{where}: expected a number, got {type(data).__name__}")
        return float(data)
    if tp is bool:
        if not isinstance(data, bool):
            raise ValueError(f"{where}: expected a bool, got {type(data).__name__}")
        return data
    if tp is int:
        if isinstance(data, bool) or not isinstance(data, int):
            raise ValueError(f"{where}: expected an int, got {type(data).__name__}")
        return data
    if tp is str:
        if not isinstance(data, str):
            raise ValueError(f"{where}: expected a string, got {type(data).__name__}")
        return data
    return data


@dataclass(frozen=True)
class Scenario:
    """One fully-specified simulation, declaratively.

    Parameters
    ----------
    name:
        Identifier — registry key for presets, label in reports.
    model / cluster:
        The deployment under test.  ``model`` is a full
        :class:`~repro.config.ModelConfig` (use
        :func:`~repro.config.paper_model` for Table II presets).
    mode / affinity / placement_strategy:
        Engine strategy, routing-model affinity strength, and placement
        solver — shared by every kind.  For ``batch`` scenarios all three
        execution modes run (the paper's comparison); ``mode`` selects
        which row provides the report's headline numbers.
    seed:
        Workload seed for ``batch`` scenarios (serving kinds derive all
        randomness from ``serving.seed``, matching the legacy entry
        points' seed layouts).
    batch / serving / drift / replacement / fleet:
        The optional sections whose presence selects the simulator (see
        module docstring).
    regime_mix / flash:
        Fleet-only traffic shaping: the regime mixture process and an
        optional flash-crowd rate spike.
    chaos:
        Fleet-only fault injection: a frozen
        :class:`~repro.chaos.spec.ChaosSpec` (crash / preemption /
        brownout schedules plus the retry policy), merged into
        ``fleet.chaos`` at run time.
    profile_tokens:
        Offline profiling trace length for affinity placements in the
        online and fleet paths.
    telemetry:
        Optional observability attachment (serving, online and fleet
        kinds): a :class:`TelemetrySpec` makes ``run`` record a per-window
        metric timeline (``SimReport.timeline``), span traces, and — with
        ``profile=True`` — the simulator's own phase breakdown.
    """

    name: str
    model: ModelConfig
    cluster: ClusterConfig
    description: str = ""
    mode: ExecutionMode = ExecutionMode.EXFLOW
    affinity: float = 0.85
    placement_strategy: str = "staged"
    seed: int = 0
    batch: InferenceConfig | None = None
    serving: ServingConfig | None = None
    drift: DriftSpec | None = None
    replacement: ReplacementSpec | None = None
    fleet: FleetConfig | None = None
    regime_mix: str = "uniform"
    flash: FlashCrowdSpec | None = None
    chaos: ChaosSpec | None = None
    profile_tokens: int = 2048
    telemetry: TelemetrySpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not 0.0 <= self.affinity <= 1.0:
            raise ValueError("affinity must be in [0, 1]")
        if self.placement_strategy not in SOLVERS:
            raise ValueError(
                f"unknown placement strategy {self.placement_strategy!r}; "
                f"choose from {sorted(SOLVERS)}"
            )
        if self.regime_mix not in REGIME_MIXES:
            raise ValueError(
                f"unknown regime mix {self.regime_mix!r}; choose from {REGIME_MIXES}"
            )
        if self.profile_tokens <= 0:
            raise ValueError("profile_tokens must be positive")
        if self.batch is not None and self.serving is not None:
            raise ValueError(
                "scenario cannot have both a batch and a serving section"
            )
        if self.batch is None and self.serving is None:
            raise ValueError(
                "scenario needs a workload: either a batch or a serving section"
            )
        serving_only = ("drift", "replacement", "fleet")
        if self.serving is None:
            for section in serving_only:
                if getattr(self, section) is not None:
                    raise ValueError(
                        f"{section} section requires a serving section"
                    )
        if self.fleet is not None and self.drift is not None:
            raise ValueError(
                "drift sections apply to single-replica online scenarios; "
                "fleet traffic drift is expressed via regime_mix"
            )
        if self.fleet is None:
            if self.flash is not None:
                raise ValueError("flash crowds require a fleet section")
            if self.regime_mix != "uniform":
                raise ValueError("regime_mix requires a fleet section")
        elif self.regime_mix == "diurnal" and self.fleet.num_regimes != 2:
            raise ValueError("the diurnal regime mix rotates exactly two regimes")
        if self.flash is not None and self.serving.arrival != "poisson":
            # the flash process replaces the arrival stream wholesale
            # (Poisson with a rate spike); accepting arrival="bursty" here
            # would silently discard the declared MMPP traffic
            raise ValueError(
                "flash crowds draw their own Poisson-with-spike arrivals; "
                "use serving.arrival='poisson' (the bursty MMPP stream would "
                "be silently ignored)"
            )
        if self.chaos is not None:
            if self.fleet is None:
                raise ValueError("chaos sections require a fleet section")
            if self.fleet.chaos is not None:
                raise ValueError(
                    "chaos is declared twice: drop fleet.chaos when the "
                    "scenario carries a chaos section"
                )
        if (
            self.fleet is not None
            and self.replacement is not None
            and not self.fleet.replace
        ):
            raise ValueError(
                "a fleet scenario with a replacement section needs fleet.replace=True"
            )
        if self.telemetry is not None:
            if self.kind == "batch":
                raise ValueError(
                    "telemetry sections apply to serving and fleet scenarios "
                    "(online ones included), not batch"
                )
            if self.telemetry.slo is not None and self.fleet is None:
                raise ValueError(
                    "telemetry.slo requires a fleet section (burn-rate "
                    "signals need the fleet's shed/availability semantics)"
                )

    @property
    def kind(self) -> str:
        """Which simulator executes this spec (dispatch rule of ``run``)."""
        if self.fleet is not None:
            return "fleet"
        if self.drift is not None or self.replacement is not None:
            return "online"
        if self.serving is not None:
            return "serving"
        return "batch"

    @property
    def is_smoke(self) -> bool:
        """Registry convention: smoke variants are suffixed ``-smoke``."""
        return self.name.endswith("-smoke")

    # -- serde -----------------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON-types dict; inverse of :meth:`from_dict`."""
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Scenario":
        return _decode(cls, data, "scenario")

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | os.PathLike[str]) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Scenario":
        with open(path) as fh:
            return cls.from_json(fh.read())
