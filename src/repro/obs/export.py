"""Telemetry exporters: JSONL event log and Chrome trace-event JSON.

Two artifact formats cover the two consumption modes:

* **JSONL** (``events.jsonl``) -- one self-describing JSON object per
  line (``kind``: ``span`` / ``instant`` / ``metric``), greppable and
  trivially re-loadable (:func:`load_spans`); ``repro report`` renders
  breakdowns straight from it.
* **Chrome trace-event JSON** (``trace.json``) -- loads in Perfetto or
  ``chrome://tracing``.  Paths, the NIC, the reorder buffer and the sink
  are threads ("tracks") of one host process; stage spans are complete
  ("X") events placed at simulation time (µs, the trace format's native
  unit), instant events are "i" events, and metric series are counter
  ("C") tracks.

:func:`export_bundle` writes both plus ``metrics.json`` and
``manifest.json`` into one directory -- the unit the sweep orchestrator
persists per cell and the CLI's ``repro report`` consumes.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterator, List, Optional

from repro.obs.span import INSTANT_STAGES, SpanTracer

#: Fixed thread ids of the non-path tracks.
TID_CONTROL = 0
TID_NIC = 1
TID_REORDER = 2
TID_SINK = 3
#: Path ``i`` renders as thread ``TID_PATH_BASE + i``.
TID_PATH_BASE = 10

_TRACK_NAMES = {
    TID_CONTROL: "control",
    TID_NIC: "nic",
    TID_REORDER: "reorder",
    TID_SINK: "sink",
}


def _span_tid(stage: str, extra) -> int:
    if stage == "nic_ring":
        return TID_NIC
    if stage == "reorder_buffer":
        return TID_REORDER
    if stage == "sink":
        return TID_SINK
    if isinstance(extra, int) and extra >= 0:
        return TID_PATH_BASE + extra
    return TID_CONTROL


def _track_tid(track: str) -> int:
    if track.startswith("path") and track[4:].isdigit():
        return TID_PATH_BASE + int(track[4:])
    return {"nic": TID_NIC, "reorder": TID_REORDER,
            "sink": TID_SINK}.get(track, TID_CONTROL)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(telemetry) -> Dict:
    """Build the Chrome trace-event document for one telemetry bundle.

    Returns the JSON Object Format: ``{"traceEvents": [...],
    "displayTimeUnit": "ms"}`` with events sorted by timestamp
    (metadata first), every event carrying ``pid``/``tid``/``ts``.
    """
    events: List[Dict] = []
    tids = set()

    for t, stage, packet, dt, extra in telemetry.tracer.spans():
        tid = _span_tid(stage, extra)
        tids.add(tid)
        if stage in INSTANT_STAGES:
            args = {"packet": packet}
            if isinstance(extra, dict):
                args.update(extra)
            events.append({"name": stage, "ph": "i", "pid": 0,
                           "tid": tid, "ts": t, "s": "t",
                           "args": args})
        else:
            events.append({"name": stage, "ph": "X", "pid": 0, "tid": tid,
                           "ts": t - dt, "dur": dt,
                           "args": {"packet": packet}})

    # Forensics annotations: one instant per attributed exemplar at its
    # delivery time, so the cause labels land next to the slow packets
    # when the trace is opened in Perfetto.
    forensics = getattr(telemetry, "forensics", None)
    if forensics:
        for ex in forensics.get("exemplars", ()):
            tid = _track_tid(ex.get("blame_path", "control"))
            tids.add(tid)
            t_sink = max((s["t_start"] + s["dt"] for s in ex["timeline"]),
                         default=0.0)
            events.append({
                "name": f"forensics:{ex['cause']}", "ph": "i", "pid": 0,
                "tid": tid, "ts": t_sink, "s": "g",
                "args": {"packet": ex["packet"], "e2e_us": ex["e2e_us"],
                         "dominant_stage": ex["dominant_stage"]},
            })

    for ev in telemetry.events:
        tid = _track_tid(ev.track)
        tids.add(tid)
        events.append({"name": ev.name, "ph": "i", "pid": 0, "tid": tid,
                       "ts": ev.time, "s": "g",
                       "args": ev.args if isinstance(ev.args, dict)
                       else {"value": ev.args}})

    for name, points in sorted(telemetry.registry.series.items()):
        for t, v in points:
            events.append({"name": name, "ph": "C", "pid": 0,
                           "tid": TID_CONTROL, "ts": t,
                           "args": {name: v}})

    events.sort(key=lambda e: (e["ts"], e["tid"]))

    meta: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0, "ts": 0.0,
        "args": {"name": "repro-host"},
    }]
    for tid in sorted(tids | {TID_CONTROL}):
        label = _TRACK_NAMES.get(tid, f"path{tid - TID_PATH_BASE}")
        meta.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                     "ts": 0.0, "args": {"name": label}})
        meta.append({"name": "thread_sort_index", "ph": "M", "pid": 0,
                     "tid": tid, "ts": 0.0, "args": {"sort_index": tid}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: Dict) -> int:
    """Validate the trace-event schema; returns the event count.

    Checks the invariants Perfetto relies on: a ``traceEvents`` list,
    ``ph``/``pid``/``tid``/``ts`` on every event, ``dur`` on complete
    events, and non-metadata events sorted by timestamp.  Raises
    ``ValueError`` on the first violation.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a trace-event document: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    last_ts = None
    for i, ev in enumerate(events):
        for field in ("ph", "pid", "tid", "ts"):
            if field not in ev:
                raise ValueError(f"event {i} missing {field!r}: {ev}")
        if ev["ph"] not in ("M", "X", "i", "C", "B", "E"):
            raise ValueError(f"event {i} has unknown phase {ev['ph']!r}")
        if ev["ph"] == "X" and ("dur" not in ev or ev["dur"] < 0):
            raise ValueError(f"complete event {i} needs a non-negative dur")
        if ev["ph"] == "M":
            continue
        if last_ts is not None and ev["ts"] < last_ts:
            raise ValueError(
                f"event {i} out of order: ts {ev['ts']} < {last_ts}"
            )
        last_ts = ev["ts"]
    return len(events)


def write_chrome_trace(telemetry, path) -> Dict:
    """Write (and validate) the Chrome trace JSON; returns the document."""
    doc = to_chrome_trace(telemetry)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def jsonl_lines(telemetry) -> Iterator[str]:
    """Yield the bundle as JSONL lines (spans, instants, metric points)."""
    for t, stage, packet, dt, extra in telemetry.tracer.spans():
        yield json.dumps({"kind": "span", "ts": t, "stage": stage,
                          "packet": packet, "dt": dt,
                          "track": extra}, sort_keys=True)
    for ev in telemetry.events:
        yield json.dumps({"kind": "instant", "ts": ev.time, "name": ev.name,
                          "track": ev.track, "args": ev.args}, sort_keys=True)
    for name in sorted(telemetry.registry.series):
        for t, v in telemetry.registry.series[name]:
            yield json.dumps({"kind": "metric", "ts": t, "name": name,
                              "value": v}, sort_keys=True)


def write_jsonl(telemetry, path) -> int:
    """Write the JSONL event log; returns the line count."""
    n = 0
    with open(path, "w") as fh:
        for line in jsonl_lines(telemetry):
            fh.write(line)
            fh.write("\n")
            n += 1
    return n


def load_spans(path) -> SpanTracer:
    """Rebuild a :class:`SpanTracer` from a JSONL event log.

    Only ``span`` records are loaded -- enough for every terminal report
    (`repro report` runs on this).  Unknown kinds are skipped, so the
    format can grow without breaking old readers.
    """
    tracer = SpanTracer()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("kind") != "span":
                continue
            tracer.record(obj["ts"], obj["stage"], obj["packet"], obj["dt"],
                          obj.get("track"))
    return tracer


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
def export_bundle(telemetry, outdir,
                  manifest: Optional[Dict] = None) -> Dict[str, str]:
    """Write the full artifact bundle into ``outdir``.

    Produces ``trace.json`` (Chrome trace, validated), ``events.jsonl``,
    ``metrics.json`` (registry dump), ``manifest.json`` (provenance;
    the telemetry's own manifest unless one is passed) and -- when the
    run was forensicated -- ``forensics.json`` (the tail-attribution
    report).  Returns ``{kind: path}`` for every file written.
    """
    from repro.obs.manifest import write_manifest

    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    trace_path = out / "trace.json"
    write_chrome_trace(telemetry, trace_path)
    paths["trace"] = str(trace_path)

    jsonl_path = out / "events.jsonl"
    write_jsonl(telemetry, jsonl_path)
    paths["events"] = str(jsonl_path)

    metrics_path = out / "metrics.json"
    with open(metrics_path, "w") as fh:
        json.dump(telemetry.registry.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    paths["metrics"] = str(metrics_path)

    manifest_path = out / "manifest.json"
    write_manifest(manifest_path,
                   manifest=manifest if manifest is not None
                   else telemetry.manifest)
    paths["manifest"] = str(manifest_path)

    forensics = getattr(telemetry, "forensics", None)
    if forensics is not None:
        forensics_path = out / "forensics.json"
        with open(forensics_path, "w") as fh:
            json.dump(forensics, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths["forensics"] = str(forensics_path)
    return paths
