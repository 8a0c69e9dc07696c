"""Golden reports: every registered ``-smoke`` preset's ``SimReport``, pinned.

``tests/golden/smoke_reports.json`` holds ``run(name).to_dict()`` for all
smoke presets (every scenario kind), floats at full precision, with the
``timeline`` document replaced by the SHA-256 of its canonical JSON.  A
change to the plumbing between a ``Scenario`` and its report must leave
every field bit-identical; a deliberate change to a report field updates
the pinned file in the same change and says why.

``tests/golden/recorder_digests.json`` pins the recorder's two exports
the way ``repro run --trace/--metrics`` serialises them (``json.dumps``,
key order as built): the SHA-256 of the Chrome-trace document and of the
timeline, for every non-batch smoke preset plus the SLO-watched bad day
with its span budget exhausted, with spans off and with a fixed window.

Regenerate with ``PYTHONPATH=src python tests/test_report_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import repro

GOLDEN = Path(__file__).parent / "golden" / "smoke_reports.json"
RECORDER_GOLDEN = Path(__file__).parent / "golden" / "recorder_digests.json"


def canonical(report: repro.SimReport) -> dict:
    """``report.to_dict()`` as JSON types, the timeline reduced to a digest."""
    doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    if doc["timeline"] is not None:
        blob = json.dumps(doc["timeline"], sort_keys=True).encode()
        doc["timeline"] = hashlib.sha256(blob).hexdigest()
    return doc


def _pinned() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_every_smoke_preset_is_pinned():
    assert tuple(sorted(_pinned())) == repro.list_scenarios(smoke=True)


@pytest.mark.parametrize("name", repro.list_scenarios(smoke=True))
def test_report_matches_golden(name):
    want = _pinned()[name]
    got = canonical(repro.run(name))
    diff = {k: (want.get(k), got.get(k)) for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    assert not diff, diff


def _recorder_cases() -> dict[str, repro.Scenario]:
    """Every non-batch smoke preset, plus the ``slo-watch`` bad-day shape
    (alert and detection spans) under three recorder settings."""
    cases = {
        name: repro.get_scenario(name)
        for name in repro.list_scenarios(smoke=True)
        if repro.get_scenario(name).kind != "batch"
    }
    bad = repro.get_scenario("fleet-bad-day-smoke")
    slo = repro.SloSpec()
    for suffix, tele in (
        ("slo", repro.TelemetrySpec(slo=slo)),
        ("slo-budget-300", repro.TelemetrySpec(slo=slo, max_span_events=300)),
        ("slo-no-spans", repro.TelemetrySpec(slo=slo, spans=False)),
        ("slo-window-500us", repro.TelemetrySpec(slo=slo, window_s=5e-4)),
    ):
        cases[f"fleet-bad-day-smoke+{suffix}"] = dataclasses.replace(bad, telemetry=tele)
    return cases


def recorder_digests(scenario: repro.Scenario) -> dict[str, str]:
    """SHA-256 of the trace and timeline JSON that ``repro run`` writes."""
    rec = (
        repro.make_recorder(scenario)
        if scenario.telemetry is not None
        else repro.TimelineRecorder()
    )
    r = repro.run(scenario, recorder=rec)
    trace = rec.to_chrome_trace(alerts=r.alerts, detections=r.detection)
    return {
        "trace": hashlib.sha256(json.dumps(trace).encode()).hexdigest(),
        "timeline": hashlib.sha256(json.dumps(rec.timeline()).encode()).hexdigest(),
    }


def test_every_recorder_case_is_pinned():
    assert sorted(json.loads(RECORDER_GOLDEN.read_text())) == sorted(_recorder_cases())


@pytest.mark.parametrize("case", sorted(_recorder_cases()))
def test_recorder_exports_match_golden(case):
    want = json.loads(RECORDER_GOLDEN.read_text())[case]
    assert recorder_digests(_recorder_cases()[case]) == want


if __name__ == "__main__":
    docs = {name: canonical(repro.run(name)) for name in repro.list_scenarios(smoke=True)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(docs)} reports to {GOLDEN}")
    digests = {name: recorder_digests(s) for name, s in _recorder_cases().items()}
    RECORDER_GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} recorder digests to {RECORDER_GOLDEN}")
