"""Host-performance benchmark of the simulator: how long ``repro.run()`` takes, and where.

Run from the repository root (no ``PYTHONPATH`` needed)::

    python3 benchmarks/perf/run.py --workload fleet-day --seed 0 --seconds 24 --trace 0

Load model: a closed loop with one client.  Each operation is one
workload repeat in a fresh ``python`` worker (``worker.py``), one at a
time, so every operation pays the first-run-in-process cost a CLI user
pays.  Operations repeat until the next one would overrun ``--seconds``
(at least one).  ``--trace 1`` alternates untraced and traced operations;
the traced ones give the per-layer numbers, the untraced ones the tracing
overhead.

Every operation's outputs are checked: the worker checks conservation
and the exports, and here every digest of simulated fields must equal the
pinned one in ``expected.json`` (seeds 0 and 1) or, for other seeds, the
first operation's.  A failed check, a crash or a timeout fails the
operation and makes the command exit 1.

Prints every metric by name with its unit, writes the full results JSON
(provenance, raw per-operation samples) to ``--out``, and prints as the
last line one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: seconds one operation may take before it counts as failed
OP_TIMEOUT_S = 90.0
#: an operation's wall time: reported, but its amount of simulated work
#: moves with the seed, so the bounded metric is host time per decode step
RUN_WALL = {"name": "run_wall_s", "unit": "s"}
#: the worker's speed probe on the reference machine (2-vCPU Xeon VM).  A
#: shared machine's speed swings by tens of percent over minutes, so every
#: time is reported in reference seconds: measured x PROBE_REF_S / probe_s
PROBE_REF_S = 0.021
TIME_UNITS = ("s", "us")


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(workload: str, seed: int, traced: bool, smoke: bool) -> dict[str, Any]:
    """One operation; ``error`` is set when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=OP_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {OP_TIMEOUT_S} s"}
    op: dict[str, Any] = {"traced": traced, "op_wall_s": perf_counter() - t0}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        op["error"] = tail[0]
    else:
        op.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return op


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    pinned: str | None = None,
) -> list[dict[str, Any]]:
    """Run operations for ``seconds``; failed ones carry an ``error``.

    ``pinned`` is the digest every operation must produce; ``None`` takes
    the first successful operation's.
    """
    ops: list[dict[str, Any]] = []
    rounds = [False, True] if trace else [False]
    start = perf_counter()
    while True:
        for traced in rounds:
            op = run_worker(workload, seed, traced, smoke)
            if "error" not in op:
                pinned = pinned or op["digest"]
                if op["digest"] != pinned:
                    op["error"] = f"digest {op['digest']} != expected {pinned}"
            ops.append(op)
        elapsed = perf_counter() - start
        per_round = elapsed / (len(ops) / len(rounds))
        if elapsed + per_round > seconds:
            return ops


def summarize(values: list[float]) -> dict[str, Any]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": statistics.median(values), "n": len(values),
        "q1": q1, "q3": q3, "samples": values,
    }


def scaled(op: dict[str, Any], value: float, unit: str) -> float:
    """A time rescaled to the reference machine by the op's probe; others as is."""
    return value * PROBE_REF_S / op["probe_s"] if unit in TIME_UNITS else value


def aggregate(ops: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Median (with quartiles) of every metric the successful operations gave.

    End-to-end metrics come from untraced operations, per-layer ones from
    traced operations; ``run_wall_s`` is reported beside them unbounded.
    """
    plain = [op for op in ops if "error" not in op and not op["traced"]]
    traced = [op for op in ops if "error" not in op and op["traced"]]
    metrics: dict[str, dict[str, Any]] = {}
    for m in [*SPEC["end_to_end"], RUN_WALL] if plain else []:
        name, unit = m["name"], m["unit"]
        metrics[name] = summarize([scaled(op, op[name], unit) for op in plain])
    # with --trace 1, ops alternate untraced, traced: compare within each pair
    overheads = [
        scaled(t, t["run_wall_s"], "s") / scaled(u, u["run_wall_s"], "s") - 1.0
        for u, t in zip(ops[::2], ops[1::2], strict=False)
        if "error" not in u and "error" not in t and t["traced"] and not u["traced"]
    ]
    for m in SPEC["per_layer"] if traced else []:
        name, unit = m["name"], m["unit"]
        if name != "trace_overhead_frac":
            metrics[name] = summarize([scaled(op, op["layers"][name], unit) for op in traced])
        elif overheads:
            metrics[name] = summarize(overheads)
    units = {m["name"]: m["unit"] for m in [*SPEC["end_to_end"], *SPEC["per_layer"], RUN_WALL]}
    for name, summary in metrics.items():
        summary["unit"] = units[name]
    return metrics


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def provenance() -> dict[str, Any]:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="results JSON (default: results/ here)")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    # compile bytecode once so no operation's setup pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(HERE)],
        capture_output=True, check=False,
    )

    load_start = os.getloadavg()[0]
    pinned = EXPECTED[args.workload].get(str(args.seed))
    ops = measure(args.workload, args.seed, args.seconds, bool(args.trace), pinned=pinned)
    metrics = aggregate(ops)
    failed = sum("error" in op for op in ops)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            **provenance(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
        "attempted": len(ops),
        "failed": failed,
        "pinned_digest": pinned,
        "metrics": metrics,
        "ops": ops,
    }
    out = args.out or HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")

    for op in ops:
        if "error" in op:
            print(f"failed op: {op['error']}", file=sys.stderr)
    for name, summary in metrics.items():
        print(f"{name} {summary['value']:.6g} {summary['unit']} (n={summary['n']})")
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    if any(m["name"] not in metrics for m in wanted):
        return 1
    line = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
