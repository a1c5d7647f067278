"""Tail forensics: automated root-cause attribution for p99+ packets.

The paper's argument is that *specific, diagnosable* last-mile events --
vCPU descheduling stalls, vSwitch queue buildup, slow chain elements,
reorder waits -- create the latency tail, and that multipath steering
removes them.  The span reports (:mod:`repro.obs.report`) show *where
time went in aggregate*; this module answers the sharper question: **why
was this particular p99.9 packet slow?**

:func:`attribute_tail` is a deterministic post-run join.  For every
delivered packet above a configurable latency quantile (default p99) it
combines

* the packet's span timeline (which leaf stage ate the time, on which
  path),
* the fault timeline (did the packet transit a path while a fault was
  armed on it?),
* the replication record (did a redundant copy die, eroding the
  coverage the packet paid for?), and
* the per-path queue-depth samples (evidence attached to exemplars),

and assigns exactly one *dominant cause* from the fixed taxonomy
:data:`CAUSES`.  The output is a schema-versioned ``forensics_report``
(cause histogram, per-path blame matrix, top-K exemplar timelines, a
tail CCDF per cause) surfaced on :class:`~repro.bench.scenarios.
SimulationResult`, via ``repro why``, in sweep telemetry bundles, and as
Perfetto annotations.

Forensics is pure post-processing over telemetry a run keeps anyway: it
follows the NullTracer zero-cost pattern, so runs without telemetry
attached are bit-identical and pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.span import LEAF_STAGES

#: The fixed cause taxonomy, in attribution-priority order for display.
#: Every analyzed packet gets exactly one label.
CAUSES = (
    "sched_stall",       # vCPU wait dominated (descheduling / jitter)
    "queue_buildup",     # vSwitch path-queue wait dominated
    "nf_service",        # chain execution dominated
    "reorder_wait",      # sequence-restoring buffer hold dominated
    "nic_ring",          # rx-ring wait dominated
    "fault_window",      # transited a path/NIC while a fault was armed
    "replication_loss",  # a redundant copy died; coverage eroded
    "mixed",             # no single stage reached the dominance share
)

#: Leaf stage -> taxonomy label for dominant-stage attribution.
STAGE_TO_CAUSE = {
    "sched_stall": "sched_stall",
    "vswitch_queue": "queue_buildup",
    "nf_service": "nf_service",
    "reorder_buffer": "reorder_wait",
    "nic_ring": "nic_ring",
}


@dataclass
class ForensicsSpec:
    """Attribution knobs (all deterministic; no RNG anywhere).

    Attributes
    ----------
    quantile:
        Latency percentile above which packets are analyzed (default
        p99: the top 1% of delivered, traced packets).
    top_k:
        Exemplar packets (slowest first) whose annotated timelines are
        embedded in the report.
    dominance:
        Minimum share of a packet's end-to-end latency one leaf stage
        must own to be called *the* cause; below it the packet is
        ``mixed``.
    ccdf_points:
        Maximum points retained per cause in the tail CCDF (evenly
        subsampled when a cause has more packets than this).
    """

    quantile: float = 99.0
    top_k: int = 5
    dominance: float = 0.5
    ccdf_points: int = 128

    def validate(self) -> "ForensicsSpec":
        if not 0.0 <= self.quantile < 100.0:
            raise ValueError(
                f"quantile must be in [0, 100), got {self.quantile}"
            )
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not 0.0 < self.dominance <= 1.0:
            raise ValueError(
                f"dominance must be in (0, 1], got {self.dominance}"
            )
        if self.ccdf_points < 2:
            raise ValueError(
                f"ccdf_points must be >= 2, got {self.ccdf_points}"
            )
        return self

    def to_dict(self) -> Dict:
        return {
            "quantile": self.quantile,
            "top_k": self.top_k,
            "dominance": self.dominance,
            "ccdf_points": self.ccdf_points,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ForensicsSpec":
        return cls(**data).validate()


# ----------------------------------------------------------------------
# Fault windows
# ----------------------------------------------------------------------
def fault_windows(timeline, horizon: float) -> List[Dict]:
    """Pair arm/clear events into ``{kind, target, start, end}`` windows.

    ``timeline`` is the injector's applied timeline (``(time, action,
    kind, target)`` tuples, in application order).  An arm without a
    matching clear extends to ``horizon`` (the fault outlived the run).
    """
    open_: Dict[Tuple[str, Any], List[float]] = {}
    out: List[Dict] = []
    for t, action, kind, target in timeline or ():
        key = (kind, target)
        if action == "arm":
            open_.setdefault(key, []).append(t)
        elif action == "clear" and open_.get(key):
            start = open_[key].pop(0)
            out.append({"kind": kind, "target": target,
                        "start": start, "end": t})
    for (kind, target), starts in sorted(open_.items(), key=str):
        for start in starts:
            out.append({"kind": kind, "target": target,
                        "start": start, "end": horizon})
    out.sort(key=lambda w: (w["start"], str(w["target"]), w["kind"]))
    return out


def _window_hits(windows: List[Dict], t0: float, t1: float,
                 paths: set, saw_nic: bool) -> List[Dict]:
    """Windows overlapping ``[t0, t1]`` on a path the packet rode (or
    the NIC, if it has an rx-ring span)."""
    hits = []
    for w in windows:
        if w["end"] <= t0 or w["start"] >= t1:
            continue
        if w["target"] == "nic":
            if saw_nic:
                hits.append(w)
        elif w["target"] in paths:
            hits.append(w)
    return hits


# ----------------------------------------------------------------------
# The attribution engine
# ----------------------------------------------------------------------
def _depth_at(series: Optional[List[Tuple[float, float]]],
              t: float) -> Optional[float]:
    """Last sampled value at or before ``t`` (None when unsampled)."""
    if not series:
        return None
    value = None
    for ts, v in series:
        if ts > t:
            break
        value = v
    return value


def attribute_tail(result, spec: Optional[ForensicsSpec] = None) -> Dict:
    """Build the ``forensics_report`` for one instrumented run.

    ``result`` is a :class:`~repro.bench.scenarios.SimulationResult`
    whose run was traced (``result.telemetry`` holds a live span
    tracer); raises ``ValueError`` otherwise.  The report is a pure
    function of the telemetry + result state, so two runs with the same
    seed produce byte-identical reports.
    """
    from repro import schemas

    spec = (spec or ForensicsSpec()).validate()
    telemetry = result.telemetry
    if telemetry is None or not getattr(telemetry.tracer, "enabled", False):
        raise ValueError(
            "forensics needs a traced run: pass RunOptions("
            "telemetry=Telemetry()) (or forensics=True, which attaches "
            "one) to repro.run"
        )
    tracer = telemetry.tracer
    warmup = getattr(result.config, "warmup", 0.0)

    # Delivered packets: pids with a sink instant past warmup.  Dropped
    # packets and suppressed replica copies never reach the sink, so
    # they are joined as *evidence*, not analyzed as tail members.
    cols = tracer.columns()
    sink = (cols.stage == cols.code("sink")) & (cols.time >= warmup)
    sink_time: Dict[int, float] = dict(zip(
        cols.packet_id[sink].tolist(), cols.time[sink].tolist()))
    #: primary pid -> its clone pids.
    replicate_groups = tracer.replicate_copies()
    #: copy pid -> primary pid (primaries map to themselves).
    copy_to_primary: Dict[int, int] = {}
    for primary, copies in replicate_groups.items():
        copy_to_primary[primary] = primary
        for cp in copies:
            copy_to_primary[cp] = primary

    totals: List[Tuple[int, float]] = list(
        tracer.leaf_totals(sorted(sink_time)).items())

    windows = fault_windows(
        (result.availability or {}).get("timeline"), result.sim_time
    )
    report: Dict = {
        "schema_version": schemas.version_for("forensics_report"),
        "spec": spec.to_dict(),
        "quantile": spec.quantile,
        "delivered_traced": len(totals),
        "fault_windows": windows,
    }
    if not totals:
        report.update({
            "threshold_us": None,
            "analyzed": 0,
            "cause_histogram": {c: 0 for c in CAUSES},
            "blame_matrix": {},
            "exemplars": [],
            "tail_ccdf": {},
        })
        report["drops"] = _drop_accounting(result)
        return report

    values = np.asarray([v for _, v in totals], dtype=np.float64)
    threshold = float(np.percentile(values, spec.quantile))
    analyzed = [(pid, total) for pid, total in totals if total >= threshold]
    analyzed.sort(key=lambda item: (-item[1], item[0]))

    series = telemetry.registry.series
    histogram = {c: 0 for c in CAUSES}
    blame: Dict[str, Dict[str, int]] = {}
    per_cause_latency: Dict[str, List[float]] = {c: [] for c in CAUSES}
    exemplars: List[Dict] = []

    for rank, (pid, total) in enumerate(analyzed):
        verdict = _attribute_one(
            tracer, cols, pid, total, sink_time[pid], windows,
            replicate_groups, copy_to_primary, sink_time, spec,
        )
        cause = verdict["cause"]
        histogram[cause] += 1
        per_cause_latency[cause].append(total)
        lane = verdict["blame_path"]
        blame.setdefault(cause, {})
        blame[cause][lane] = blame[cause].get(lane, 0) + 1
        if rank < spec.top_k:
            exemplars.append(_exemplar(
                tracer, cols, pid, total, verdict, series,
            ))

    report.update({
        "threshold_us": threshold,
        "analyzed": len(analyzed),
        "cause_histogram": histogram,
        "blame_matrix": {c: dict(sorted(blame[c].items()))
                         for c in sorted(blame)},
        "exemplars": exemplars,
        "tail_ccdf": {
            c: _ccdf(per_cause_latency[c], spec.ccdf_points)
            for c in CAUSES if per_cause_latency[c]
        },
    })
    report["drops"] = _drop_accounting(result)
    return report


def _packet_spans(tracer, cols, pid: int) -> List[Tuple]:
    """One packet's ``(start, time, stage, dt, extra)`` spans, read off
    the columns in record order."""
    rows = tracer.rows(pid)
    times = cols.time[rows].tolist()
    dts = cols.dt[rows].tolist()
    names = cols.stages
    return [(t - dt, t, names[code], dt, tracer.extra_at(row))
            for row, t, code, dt in zip(rows.tolist(), times,
                                        cols.stage[rows].tolist(), dts)]


def _attribute_one(tracer, cols, pid: int, total: float, t_sink: float,
                   windows, replicate_groups, copy_to_primary,
                   sink_time, spec: ForensicsSpec) -> Dict:
    """Assign one packet's dominant cause.

    Rule order is fixed (and documented in docs/FORENSICS.md):

    1. ``fault_window`` -- the packet's transit overlapped an armed
       fault on a path it rode (or the NIC);
    2. ``replication_loss`` -- the packet traveled as a replicated group
       and at least one sibling copy died in flight (no chain completion,
       no delivery), so the redundancy meant to cover it was eroded;
    3. the dominant leaf stage, if it owns at least ``spec.dominance``
       of the end-to-end latency (:data:`STAGE_TO_CAUSE`);
    4. ``mixed`` otherwise.
    """
    stage_sums: Dict[str, float] = {}
    stage_path: Dict[str, Tuple[float, Any]] = {}
    paths: set = set()
    t0 = t_sink
    saw_nic = False
    for start, _, stage, dt, extra in _packet_spans(tracer, cols, pid):
        if stage not in STAGE_TO_CAUSE:
            continue
        stage_sums[stage] = stage_sums.get(stage, 0.0) + dt
        best = stage_path.get(stage)
        if best is None or dt > best[0]:
            stage_path[stage] = (dt, extra)
        if isinstance(extra, int) and extra >= 0:
            paths.add(extra)
        if stage == "nic_ring":
            saw_nic = True
        if start < t0:
            t0 = start

    dominant = None
    if stage_sums:
        dominant = max(
            LEAF_STAGES,
            key=lambda s: (stage_sums.get(s, 0.0), -LEAF_STAGES.index(s)),
        )

    hits = _window_hits(windows, t0, t_sink, paths, saw_nic)
    lost_siblings: List[int] = []
    primary = copy_to_primary.get(pid)
    if primary is not None:
        group = [primary] + list(replicate_groups[primary])
        for sibling in group:
            if sibling == pid or sibling in sink_time:
                continue
            sib_stages = {cols.stages[code] for code in
                          cols.stage[tracer.rows(sibling)].tolist()}
            # A suppressed copy completed its chain (it has an
            # nf_service span); a copy with none died in the data plane.
            if "nf_service" not in sib_stages and "sink" not in sib_stages:
                lost_siblings.append(sibling)

    if hits:
        cause = "fault_window"
        blame_target = hits[0]["target"]
        blame_path = (f"path{blame_target}"
                      if isinstance(blame_target, int) else str(blame_target))
    elif lost_siblings:
        cause = "replication_loss"
        blame_path = _dominant_lane(dominant, stage_path, paths)
    elif dominant is not None and stage_sums.get(dominant, 0.0) >= \
            spec.dominance * total and total > 0:
        cause = STAGE_TO_CAUSE[dominant]
        blame_path = _dominant_lane(dominant, stage_path, paths)
    else:
        cause = "mixed"
        blame_path = _dominant_lane(dominant, stage_path, paths)

    return {
        "cause": cause,
        "dominant_stage": dominant,
        "stage_sums": stage_sums,
        "blame_path": blame_path,
        "fault_overlaps": hits,
        "lost_siblings": lost_siblings,
        "t0": t0,
        "t_sink": t_sink,
        "paths": sorted(paths),
    }


def _dominant_lane(dominant, stage_path, paths) -> str:
    """Display lane for the blame matrix: the path that hosted the
    largest span of the dominant stage; NIC/reorder stages (no path
    affinity) fall back to the packet's sole path, else "host"."""
    if dominant is not None and dominant in stage_path:
        extra = stage_path[dominant][1]
        if isinstance(extra, int) and extra >= 0:
            return f"path{extra}"
    if len(paths) == 1:
        return f"path{next(iter(paths))}"
    return "host"


def _exemplar(tracer, cols, pid: int, total: float, verdict: Dict,
              series) -> Dict:
    """One annotated timeline for the report's exemplar list."""
    spans = sorted(_packet_spans(tracer, cols, pid),
                   key=lambda span: (span[0], span[1]))
    timeline = []
    for start, _, stage, dt, extra in spans:
        if stage == "replicate":
            continue
        entry = {"t_start": start, "stage": stage, "dt": dt}
        if isinstance(extra, int) and extra >= 0:
            entry["path"] = extra
        timeline.append(entry)
    # Queue-depth evidence: what did the chosen path's queue look like
    # when this packet entered it?  (Nearest gauge sample at or before
    # the vswitch_queue span start; None when metrics were off.)
    depth = None
    vq = verdict["stage_sums"].get("vswitch_queue")
    if vq is not None:
        for start, _, stage, _, extra in spans:
            if stage == "vswitch_queue" and isinstance(extra, int):
                depth = _depth_at(series.get(f"path{extra}.depth"), start)
                break
    return {
        "packet": pid,
        "e2e_us": total,
        "cause": verdict["cause"],
        "dominant_stage": verdict["dominant_stage"],
        "blame_path": verdict["blame_path"],
        "paths": verdict["paths"],
        "stages": {s: verdict["stage_sums"][s]
                   for s in sorted(verdict["stage_sums"])},
        "queue_depth_at_enqueue": depth,
        "fault_overlaps": verdict["fault_overlaps"],
        "lost_siblings": verdict["lost_siblings"],
        "timeline": timeline,
    }


def _ccdf(latencies: List[float], max_points: int) -> List[List[float]]:
    """``[[latency_us, P(X >= latency)], ...]`` over one cause's packets,
    evenly subsampled to ``max_points`` when larger."""
    arr = sorted(latencies)
    n = len(arr)
    points = [[float(arr[i]), float((n - i) / n)] for i in range(n)]
    if n <= max_points:
        return points
    idx = np.linspace(0, n - 1, max_points).astype(int)
    return [points[i] for i in idx]


def _drop_accounting(result) -> Dict:
    """Join the host's drop ledger (and the invariant engine's view of
    it, when a check ran) so the report accounts for packets that never
    reached the sink at all -- the tail beyond the tail."""
    stats = result.stats or {}
    out = {
        "by_reason": dict(sorted((stats.get("drops") or {}).items())),
        "nic": stats.get("nic_drops", 0),
        "suppressed_copies": stats.get("suppressed", 0),
    }
    check = result.check_report
    if check is not None:
        out["check"] = {
            "ok": check.get("ok"),
            "conservation_checks": (check.get("invariants") or {})
            .get("conservation", 0),
            "violation_count": check.get("violation_count", 0),
        }
    return out


# ----------------------------------------------------------------------
# Terminal rendering (used by ``repro why``)
# ----------------------------------------------------------------------
def render_forensics(report: Dict, top_k: Optional[int] = None) -> str:
    """Human-readable rendering of a ``forensics_report``."""
    from repro.metrics.report import Table

    parts = []
    threshold = report["threshold_us"]
    if threshold is not None:
        title = (f"tail forensics: {report['analyzed']} packets above "
                 f"p{report['quantile']:g} ({threshold:.1f} us)")
    else:
        title = "tail forensics: no delivered traced packets"
    t = Table(["cause", "packets", "share", "p50 (us)", "max (us)"],
              title=title)
    total = max(report["analyzed"], 1)
    ccdf = report.get("tail_ccdf", {})
    for cause in CAUSES:
        n = report["cause_histogram"].get(cause, 0)
        if n == 0:
            continue
        lats = [p[0] for p in ccdf.get(cause, [])]
        t.add_row([cause, n, f"{n / total:.1%}",
                   float(np.median(lats)) if lats else float("nan"),
                   max(lats) if lats else float("nan")])
    parts.append(t.render())

    blame = report.get("blame_matrix") or {}
    if blame:
        lanes = sorted({lane for row in blame.values() for lane in row})
        bt = Table(["cause"] + lanes, title="blame matrix (packets)")
        for cause in sorted(blame):
            bt.add_row([cause] + [blame[cause].get(lane, 0)
                                  for lane in lanes])
        parts.append(bt.render())

    exemplars = report.get("exemplars", [])
    if top_k is not None:
        exemplars = exemplars[:top_k]
    for ex in exemplars:
        et = Table(["t_start (us)", "stage", "dt (us)", "track"],
                   title=f"packet {ex['packet']} (e2e {ex['e2e_us']:.1f} us, "
                         f"cause: {ex['cause']})")
        for step in ex["timeline"]:
            lane = f"path{step['path']}" if "path" in step else "-"
            et.add_row([step["t_start"], step["stage"], step["dt"], lane])
        parts.append(et.render())
        notes = []
        if ex["fault_overlaps"]:
            w = ex["fault_overlaps"][0]
            notes.append(f"overlapped {w['kind']} on {w['target']} "
                         f"[{w['start']:.0f}, {w['end']:.0f}]")
        if ex["lost_siblings"]:
            notes.append(f"lost replica copies: {ex['lost_siblings']}")
        if ex["queue_depth_at_enqueue"] is not None:
            notes.append(f"queue depth at enqueue: "
                         f"{ex['queue_depth_at_enqueue']:.0f}")
        if notes:
            parts.append("  " + "; ".join(notes))
    return "\n\n".join(parts)
