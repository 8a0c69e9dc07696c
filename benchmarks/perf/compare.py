"""Compare a parent's and a change's benchmark results, one row per workload.

Usage (stdlib only)::

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced (``--trace 0``) results JSONs ``run.py``
wrote for one commit.  Runs pair up by (workload, seed), so measure both
commits on the same seeds, alternating which commit runs first.  For every
end-to-end metric of ``BENCHMARK.json`` the verdict is, in this order:

* ``gain``: at least 10 pairs, the change wins at least 9/10 of all pairs
  (ties count for neither), the medians differ by more than the parent's
  interquartile range, and the change failed no more operations;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: either side's spread (IQR / median) exceeds the bound,
  and not every change run beats every parent run;
* ``unchanged``: otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace") == 0:
            runs[(doc["workload"], doc["seed"])] = doc
    return runs


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], metric: dict, failed: tuple[int, int]) -> str:
    """Classify one metric on one workload; values are paired by index."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    # positive "better" margins: how much the change beats the parent
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and sign * (p_med - c_med) > iqr(parent)
        and failed[1] <= failed[0]
    ):
        return "gain"
    if sign * (c_med - p_med) > metric["bound"] * abs(p_med):
        return "regressed"
    spread = max(iqr(parent) / abs(p_med), iqr(change) / abs(c_med))
    all_better = min(sign * p for p in parent) > max(sign * c for c in change)
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    parent_runs, change_runs = load(args.parent), load(args.change)
    regressed = False
    for w in [workload["name"] for workload in SPEC["workloads"]]:
        keys = sorted(k for k in parent_runs.keys() & change_runs.keys() if k[0] == w)
        if not keys:
            print(f"{w}: no paired runs")
            continue
        p_docs = [parent_runs[k] for k in keys]
        c_docs = [change_runs[k] for k in keys]
        failed = (sum(d["failed"] for d in p_docs), sum(d["failed"] for d in c_docs))
        cells = []
        for m in SPEC["end_to_end"]:
            name = m["name"]
            p = [d["metrics"][name]["value"] for d in p_docs]
            c = [d["metrics"][name]["value"] for d in c_docs]
            v = verdict(p, c, m, failed)
            regressed |= v == "regressed"
            p_med, c_med = statistics.median(p), statistics.median(c)
            cells.append(
                f"{name} {v} ({p_med:.4g} -> {c_med:.4g} {m['unit']}, "
                f"{100.0 * (c_med - p_med) / p_med:+.1f}%)"
            )
        print(f"{w}: pairs={len(keys)} failed={failed[0]}/{failed[1]} | " + " | ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
