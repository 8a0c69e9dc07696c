"""Import-weight guard: the library runs without SciPy or networkx.

``import repro`` is what every ``repro run`` pays before it simulates
anything, and SciPy's ``optimize`` stack plus networkx used to make up
over half of it.  This checks the structure, not the timing: after
importing the package and running one smoke preset of each scenario kind
in a fresh interpreter, neither package may have been imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: one smoke preset per scenario kind; the batch one runs the staged and
#: ilp placement solvers
PRESETS = (
    "fig10-end-to-end-smoke",  # batch
    "fig15-abrupt-smoke",  # online
    "serve-poisson-smoke",  # serving
    "fleet-scale-day-smoke",  # fleet
)

SCRIPT = f"""
import sys

import repro

for name in {PRESETS!r}:
    repro.run(name)
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))
print("\\n".join(heavy))
"""


def test_no_scipy_or_networkx_after_import_and_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
