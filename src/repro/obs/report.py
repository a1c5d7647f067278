"""Terminal rendering of span telemetry: breakdowns and packet timelines.

Answers the two questions a tail-latency investigation always starts
with: *where does the time go in aggregate* (stage-breakdown table over
the leaf stages, whose totals partition end-to-end latency) and *where
did the time go for the worst packets* (top-K slowest packet span
timelines).  ``repro trace`` and ``repro report`` print both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.report import Table
from repro.obs.span import LEAF_STAGES

#: Stage label column width heuristics live in Table; nothing to tune here.


def stage_breakdown(tracer, warmup: float = 0.0) -> Dict[str, Dict[str, float]]:
    """Aggregate leaf-stage statistics: count/mean/p99/total per stage.

    ``warmup`` discards records whose completion time predates it (same
    steady-state convention as the latency recorder).
    """
    cols = tracer.columns()
    kept = ~(cols.time < warmup)
    out: Dict[str, Dict[str, float]] = {}
    for stage in LEAF_STAGES:
        arr = cols.dt[kept & (cols.stage == cols.code(stage))]
        if arr.size:
            out[stage] = {
                "count": float(arr.size),
                "mean": float(arr.mean()),
                "p99": float(np.percentile(arr, 99)),
                "total": float(arr.sum()),
            }
        else:
            out[stage] = {"count": 0.0, "mean": 0.0, "p99": 0.0, "total": 0.0}
    return out


def breakdown_table(tracer, warmup: float = 0.0,
                    title: str = "stage breakdown") -> Table:
    """Render the leaf-stage breakdown as an aligned table.

    The ``share`` column is each stage's fraction of the summed totals
    -- since leaf stages partition end-to-end latency, this is the
    stage's true share of where the time went.
    """
    stats = stage_breakdown(tracer, warmup=warmup)
    grand_total = sum(s["total"] for s in stats.values()) or 1.0
    t = Table(["stage", "spans", "mean (us)", "p99 (us)", "total (us)",
               "share"], title=title)
    for stage in LEAF_STAGES:
        s = stats[stage]
        t.add_row([stage, int(s["count"]), s["mean"], s["p99"], s["total"],
                   f"{s['total'] / grand_total:.1%}"])
    return t


# ----------------------------------------------------------------------
# Per-packet timelines
# ----------------------------------------------------------------------
def packet_totals(tracer, warmup: float = 0.0) -> List[Tuple[int, float]]:
    """``(packet_id, leaf-stage total)`` per packet, unsorted.

    A packet's leaf total is its end-to-end latency as seen by the spans
    (see :data:`~repro.obs.span.LEAF_STAGES`).
    """
    totals = tracer.leaf_totals()
    if warmup:
        # Drop packets whose last record completed before warmup.
        cols = tracer.columns()
        pids = cols.packet_id[::-1]
        _, last = np.unique(pids, return_index=True)
        early = set(pids[last[cols.time[::-1][last] < warmup]].tolist())
        return [(pid, total) for pid, total in totals.items()
                if pid not in early]
    return list(totals.items())


def slowest_packets(tracer, k: int = 3,
                    warmup: float = 0.0) -> List[Tuple[int, float]]:
    """The ``k`` packets with the largest leaf totals, slowest first."""
    totals = packet_totals(tracer, warmup=warmup)
    totals.sort(key=lambda item: (-item[1], item[0]))
    return totals[:k]


def percentile_packet(tracer, pct: float,
                      warmup: float = 0.0) -> Optional[int]:
    """The packet whose leaf total sits at the ``pct`` percentile.

    Returns the id of the packet whose end-to-end latency is closest to
    (at or above) the requested percentile -- "show me *the* p99.9
    packet" for timeline inspection.
    """
    totals = packet_totals(tracer, warmup=warmup)
    if not totals:
        return None
    totals.sort(key=lambda item: item[1])
    values = [v for _, v in totals]
    target = float(np.percentile(np.asarray(values), pct))
    for pid, total in totals:
        if total >= target:
            return pid
    return totals[-1][0]


def timeline_table(tracer, packet_id: int,
                   title: Optional[str] = None) -> Table:
    """One packet's span timeline, in stage-completion order."""
    recs = sorted(tracer.per_packet(packet_id),
                  key=lambda r: (r.start, r.time))
    total = sum(r.dt for r in recs if r.stage in LEAF_STAGES)
    t = Table(["t_start (us)", "stage", "dt (us)", "track"],
              title=title or f"packet {packet_id} "
                             f"(e2e {total:.1f} us)")
    for rec in recs:
        track = (f"path{rec.extra}" if isinstance(rec.extra, int)
                 and rec.extra >= 0 else "-")
        t.add_row([rec.start, rec.stage, rec.dt, track])
    return t


def dominant_stage(tracer, packet_id: int) -> Optional[str]:
    """The leaf stage this packet spent the most time in."""
    best, best_dt = None, -1.0
    for rec in tracer.per_packet(packet_id):
        if rec.stage in LEAF_STAGES and rec.dt > best_dt:
            best, best_dt = rec.stage, rec.dt
    return best


def json_report(tracer, warmup: float = 0.0, top_k: int = 3,
                e2e_summary=None) -> Dict:
    """Machine-readable counterpart of :func:`render_report`.

    The ``trace_report`` payload: the leaf-stage breakdown plus the
    top-K slowest packets with their full span timelines, stamped with
    a ``schema_version`` (see :mod:`repro.schemas`).  ``repro report
    --json`` and ``repro trace --json`` emit exactly this.
    """
    from repro import schemas

    slowest = []
    for pid, total in slowest_packets(tracer, k=top_k, warmup=warmup):
        recs = sorted(tracer.per_packet(pid), key=lambda r: (r.start, r.time))
        timeline = []
        for rec in recs:
            entry = {"t_start": rec.start, "stage": rec.stage, "dt": rec.dt}
            if isinstance(rec.extra, int) and rec.extra >= 0:
                entry["path"] = rec.extra
            timeline.append(entry)
        slowest.append({
            "packet": pid,
            "e2e_us": total,
            "dominant_stage": dominant_stage(tracer, pid),
            "timeline": timeline,
        })
    out = {
        "schema_version": schemas.version_for("trace_report"),
        "warmup": warmup,
        "stage_breakdown": stage_breakdown(tracer, warmup=warmup),
        "slowest": slowest,
    }
    if e2e_summary is not None:
        out["e2e_summary"] = e2e_summary.to_dict()
    return out


def render_report(tracer, warmup: float = 0.0, top_k: int = 3,
                  e2e_summary=None) -> str:
    """Full terminal report: breakdown + top-K slowest packet timelines.

    ``e2e_summary`` (a :class:`~repro.metrics.stats.LatencySummary`)
    adds a reconciliation line comparing the spans' mean against the
    sink's measured mean -- the two must agree within ~1%.
    """
    parts = [breakdown_table(tracer, warmup=warmup).render()]
    totals = packet_totals(tracer, warmup=warmup)
    if totals and e2e_summary is not None:
        span_mean = sum(v for _, v in totals) / len(totals)
        delta = (span_mean / e2e_summary.mean - 1.0) if e2e_summary.mean else 0.0
        parts.append(
            f"span-sum mean {span_mean:.2f} us vs sink mean "
            f"{e2e_summary.mean:.2f} us ({delta:+.2%})"
        )
    for pid, total in slowest_packets(tracer, k=top_k, warmup=warmup):
        table = timeline_table(
            tracer, pid,
            title=f"slow packet {pid} (e2e {total:.1f} us, "
                  f"dominant: {dominant_stage(tracer, pid)})")
        parts.append(table.render())
    return "\n\n".join(parts)
