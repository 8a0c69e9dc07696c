"""Chrome-trace (Perfetto) JSON export for recorded span logs.

The output follows the Trace Event Format accepted by ``chrome://tracing``
and https://ui.perfetto.dev — a ``{"traceEvents": [...]}`` document whose
timestamps are microseconds relative to the run's first arrival.  The
span events are one walk over the recorder's span-kind table (see
:mod:`repro.obs.recorder`), in its declaration order:

* decode steps, replica boots and drains are complete-spans (``ph: "X"``)
  on ``pid 0`` ("fleet"), one thread track per replica;
* request lifecycles are async spans (``ph: "b"`` / ``"e"``, keyed by
  ``cat: "request"`` + the request id) on ``pid 1`` ("requests"): a
  ``queue`` span from enqueue to admission, then a ``decode`` span from
  admission to completion;
* sheds and autoscale decisions are instants (``ph: "i"``), as are the
  chaos subsystem's preempt notices, replica failures, request retries
  and terminal losses; a failed replica's outage (failure → replacement
  routable, or run end if it never recovered) is a complete-span;
* the per-window timeline is mirrored as counter tracks (``ph: "C"``)
  so queue depth / active batch / replica census plot natively.

:func:`validate_chrome_trace` is the structural check used by the test
suite and CI on exported artefacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from repro.obs.recorder import TimelineRecorder

__all__ = ["chrome_trace", "validate_chrome_trace", "write_chrome_trace"]

_FLEET_PID = 0
_REQUESTS_PID = 1

#: Event phases this exporter emits (and the validator accepts).
_KNOWN_PHASES = frozenset({"X", "b", "e", "i", "M", "C"})


def _meta(name: str, pid: int, tid: int, value: str) -> dict[str, object]:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "ts": 0, "args": {"name": value}}


def _complete(
    name: str, cat: str, tid: int, ts_us: float, dur_s: float, args: dict[str, object]
) -> dict[str, object]:
    """A complete-span event (``ph: "X"``) on the fleet process, track ``tid``."""
    return {"name": name, "cat": cat, "ph": "X", "pid": _FLEET_PID, "tid": tid, "ts": ts_us,
            "dur": round(max(0.0, dur_s) * 1e6, 3), "args": args}


def chrome_trace(
    rec: TimelineRecorder,
    *,
    alerts: Sequence[Mapping[str, object]] | None = None,
    detections: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Build the trace document from a (finished) :class:`TimelineRecorder`.

    ``alerts`` (``SimReport.alerts``: burn-rate :class:`AlertSpan` dicts)
    and ``detections`` (``SimReport.detection``: the observed
    outage/brownout record) add ``cat: "alert"`` complete-spans next to
    the ground-truth ``cat: "chaos"`` spans, so detection latency is
    visible as the horizontal gap between the two tracks.
    """
    t0_s = rec.t0_s

    def us(t_s: float) -> float:
        return round((t_s - t0_s) * 1e6, 3)

    evs: list[dict[str, object]] = [
        _meta("process_name", _FLEET_PID, 0, "fleet"),
        _meta("process_name", _REQUESTS_PID, 0, "requests"),
    ]
    for row in rec.replica_rows():
        rid = int(row["replica"])  # type: ignore[call-overload]
        evs.append(
            _meta("thread_name", _FLEET_PID, rid, f"replica {rid} (regime {row['regime']})")
        )

    for kind, log in rec.span_rows():
        name, cat, ph, names = kind
        if ph == "i":
            # a {} in an instant's name takes the entry's first value (no argument then)
            skip = name.count("{}")
            for tid, ts_s, *vals in log:
                evs.append(
                    {"name": name.format(*vals[:skip]), "cat": cat, "ph": "i", "s": "g",
                     "pid": _FLEET_PID, "tid": tid, "ts": us(ts_s),
                     "args": dict(zip(names, vals[skip:], strict=True))}
                )
        elif ph == "X":
            for tid, ts_s, dur_s, *vals in log:
                args = dict(zip(names, vals, strict=True))
                evs.append(_complete(name, cat, tid, us(ts_s), dur_s, args))
        else:  # async request spans: a b/e pair keyed by the request id
            for tid, ts_s, dur_s, *vals in log:
                common = {"name": name, "cat": cat, "id": str(vals[0]), "pid": _REQUESTS_PID,
                          "tid": tid, "args": dict(zip(names, vals, strict=True))}
                evs.append({**common, "ph": "b", "ts": us(ts_s)})
                evs.append({**common, "ph": "e", "ts": us(ts_s + max(0.0, dur_s))})

    for span in alerts or ():
        name = f"{span.get('severity', 'alert')}:{span.get('signal', '?')}"
        ts_us = us(float(span.get("open_s", t0_s)))  # type: ignore[arg-type]
        dur_s = float(span.get("close_s", 0.0)) - float(span.get("open_s", 0.0))  # type: ignore[arg-type]
        args = {k: span.get(k) for k in ("burn_at_open", "peak_burn", "windows")}
        evs.append(_complete(name, "alert", 0, ts_us, dur_s, args))
    if detections is not None:
        observed = (
            ("observed-outage", detections.get("outages")),
            ("observed-brownout", detections.get("brownouts")),
        )
        for name, rows in observed:
            if not isinstance(rows, Sequence):
                continue
            for row in rows:
                if not isinstance(row, Mapping):
                    continue
                open_s = float(row.get("detected_s", 0.0))  # type: ignore[arg-type]
                close_s = float(row.get("closed_s", open_s))  # type: ignore[arg-type]
                tid = int(row.get("replica", 0))  # type: ignore[call-overload]
                args = {k: v for k, v in row.items() if k not in ("detected_s", "closed_s")}
                evs.append(_complete(name, "alert", tid, us(open_s), close_s - open_s, args))

    timeline = rec.timeline()
    time_rel = timeline["time_s"]
    windows = timeline["windows"]
    assert isinstance(time_rel, list) and isinstance(windows, dict)
    for counter, column in (
        ("queued", windows["queue_total"]),
        ("active", windows["active_total"]),
        ("replicas_routable", windows["routable"]),
    ):
        for rel_s, value in zip(time_rel, column, strict=True):
            evs.append(
                {
                    "name": counter,
                    "ph": "C",
                    "pid": _FLEET_PID,
                    "tid": 0,
                    "ts": round(rel_s * 1e6, 3),
                    "args": {counter: value},
                }
            )

    return {
        "traceEvents": evs,
        "displayTimeUnit": "ms",
        "otherData": {
            "t0_s": t0_s,
            "t_end_s": rec.t_end_s,
            "num_replicas": rec.num_replicas,
            "dropped_span_events": rec.dropped_span_events,
        },
    }


def validate_chrome_trace(doc: object) -> int:
    """Structurally validate a trace document; return the event count.

    Raises :class:`ValueError` on the first problem found.  This is the
    check CI runs on exported artefacts, so keep it strict enough to
    catch real export bugs (unknown phases, negative durations,
    unbalanced async begin/end pairs) but agnostic to event ordering.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace must be a JSON object, got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace must carry a non-empty 'traceEvents' list")
    async_balance: dict[tuple[str, str, str], int] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where}: event must be an object")
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            raise ValueError(f"{where}: unknown phase {ph!r}")
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ValueError(f"{where}: {key} must be an int")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            raise ValueError(f"{where}: ts must be a non-negative number, got {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                raise ValueError(f"{where}: 'X' event needs a non-negative dur, got {dur!r}")
        elif ph in ("b", "e"):
            cat, ev_id = ev.get("cat"), ev.get("id")
            if not isinstance(cat, str) or not isinstance(ev_id, str):
                raise ValueError(f"{where}: async event needs string 'cat' and 'id'")
            key_async = (cat, ev_id, name)
            async_balance[key_async] = async_balance.get(key_async, 0) + (1 if ph == "b" else -1)
        elif ph == "i":
            if ev.get("s") not in ("g", "p", "t"):
                raise ValueError(f"{where}: instant needs scope 's' in g/p/t")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"{where}: counter event needs non-empty args")
    unbalanced = {k: v for k, v in async_balance.items() if v != 0}
    if unbalanced:
        raise ValueError(f"unbalanced async begin/end pairs: {sorted(unbalanced)[:5]}")
    return len(events)


def write_chrome_trace(doc: dict[str, object], path: str | Path) -> Path:
    """Validate and write a trace document; return the written path."""
    validate_chrome_trace(doc)
    out = Path(path)
    out.write_text(json.dumps(doc) + "\n")
    return out
