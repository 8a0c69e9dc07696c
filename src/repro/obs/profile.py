"""Simulator self-profiling: wall-time split across engine phases.

:class:`PhaseProfiler` is the one sanctioned wall-clock user inside the
simulator packages (RPL002 allows ``time.perf_counter`` exactly because
measuring the simulator's own wall time can never feed back into
simulated results).  Both fleet engines accept an optional profiler and
bracket their hot phases with it:

* ``routing`` — router ``choose`` calls and the routing kernels,
* ``admission`` — SLO admission ``assess``/``assess_codes`` calls,
* ``pricing`` — ``PlacementStepTimer`` step/admission pricing plus the
  per-step expert-path sampling that feeds it,
* ``bookkeeping`` — everything else (the remainder of the run loop).

``bookkeeping`` is derived (total minus measured), so the four phase
fractions sum to exactly 1.0 whenever any time was recorded — CI asserts
this on the published ``BENCH_profile.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Mapping

__all__ = ["MEASURED_PHASES", "PROFILE_PHASES", "PhaseProfile", "PhaseProfiler"]

#: Phases the engines measure directly with perf_counter brackets.
MEASURED_PHASES: tuple[str, ...] = ("routing", "admission", "pricing")

#: All reported phases; ``bookkeeping`` is the unmeasured remainder.
PROFILE_PHASES: tuple[str, ...] = (*MEASURED_PHASES, "bookkeeping")


@dataclass(frozen=True)
class PhaseProfile:
    """One finished wall-time breakdown (seconds per phase + fractions)."""

    total_s: float
    phase_s: Mapping[str, float]

    @property
    def fractions(self) -> dict[str, float]:
        """Phase shares of ``total_s``; sum to 1.0 when total_s > 0."""
        if self.total_s <= 0.0:
            return {phase: 0.0 for phase in self.phase_s}
        return {phase: v / self.total_s for phase, v in self.phase_s.items()}

    def as_dict(self) -> dict[str, object]:
        return {
            "total_s": self.total_s,
            "phase_s": dict(self.phase_s),
            "fractions": self.fractions,
        }


class PhaseProfiler:
    """Accumulates per-phase wall time across one or more engine runs.

    Engines call :meth:`run_start`/:meth:`run_end` around their main loop
    and :meth:`add` with already-measured phase durations; the profiler
    itself never touches simulated time, only host wall time.
    """

    __slots__ = ("_measured_s", "_total_s", "_open_t", "runs")

    def __init__(self) -> None:
        self._measured_s: dict[str, float] = {phase: 0.0 for phase in MEASURED_PHASES}
        self._total_s = 0.0
        self._open_t: float | None = None
        self.runs = 0

    def run_start(self) -> None:
        if self._open_t is not None:
            raise RuntimeError("PhaseProfiler.run_start called twice without run_end")
        self._open_t = perf_counter()

    def run_end(self) -> None:
        if self._open_t is None:
            raise RuntimeError("PhaseProfiler.run_end called without run_start")
        self._total_s += perf_counter() - self._open_t
        self._open_t = None
        self.runs += 1

    def add(self, phase: str, seconds: float) -> None:
        """Credit ``seconds`` of wall time to a measured phase."""
        if phase not in self._measured_s:
            raise KeyError(f"unknown profile phase {phase!r}; expected one of {MEASURED_PHASES}")
        self._measured_s[phase] += seconds

    def profile(self) -> PhaseProfile:
        """Snapshot the accumulated breakdown as a :class:`PhaseProfile`."""
        measured_s = sum(self._measured_s.values())
        # clock granularity can make the measured sum exceed the bracketed
        # total on very short runs; clamp so bookkeeping is never negative
        total_s = max(self._total_s, measured_s)
        phase_s = dict(self._measured_s)
        phase_s["bookkeeping"] = total_s - measured_s
        return PhaseProfile(total_s=total_s, phase_s=phase_s)
