"""Golden reports: every registered ``-smoke`` preset's ``SimReport``, pinned.

``tests/golden/smoke_reports.json`` holds ``run(name).to_dict()`` for all
smoke presets (every scenario kind), floats at full precision, with the
``timeline`` document replaced by the SHA-256 of its canonical JSON.  A
change to the plumbing between a ``Scenario`` and its report must leave
every field bit-identical; a deliberate change to a report field updates
the pinned file in the same change and says why.

Regenerate with ``PYTHONPATH=src python tests/test_report_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro

GOLDEN = Path(__file__).parent / "golden" / "smoke_reports.json"


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


if __name__ == "__main__":
    docs = {name: canonical(repro.run(name)) for name in repro.list_scenarios(smoke=True)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(docs)} reports to {GOLDEN}")
