"""``repro.obs`` -- the observability subsystem.

One import surface for everything a run can tell you about itself:

* :class:`Telemetry` -- the per-run bundle: span tracer + metrics
  registry + instant events + manifest.  Pass one to ``repro.run`` /
  ``simulate`` to instrument a run; omit it and every hot path stays on
  a no-op guard (bit-identical results, near-zero cost).
* :class:`SpanTracer` / :data:`NullTracer` -- packet-lifecycle stage
  spans (``nic_ring → vswitch_queue → sched_stall → nf_service →
  reorder_buffer → sink``); leaf stages partition end-to-end latency.
* :class:`MetricsRegistry` / :class:`MetricsSampler` / :class:`Histogram`
  -- counters, gauges and P² histograms with sim-time snapshots.
* Exporters -- Chrome trace-event JSON (Perfetto-loadable),
  JSONL event log, metrics dump and run manifest
  (:func:`export_bundle`).
* Reports -- terminal stage-breakdown and slowest-packet timelines
  (:func:`breakdown_table`, :func:`render_report`) plus the
  machine-readable ``trace_report`` (:func:`json_report`).
* Forensics -- deterministic tail attribution: every p99+ packet gets
  one dominant-cause label from a fixed taxonomy
  (:func:`attribute_tail`; ``repro why``, docs/FORENSICS.md).
* Ledger -- the append-only cross-run regression record with
  bootstrap-CI diffs (:mod:`repro.obs.ledger`; ``repro ledger``).
"""

from repro.obs.forensics import (
    CAUSES,
    ForensicsSpec,
    attribute_tail,
    render_forensics,
)
from repro.obs.ledger import (
    append_entry,
    build_cluster_entry,
    build_entry,
    diff_entries,
    load_ledger,
    render_diff,
    render_ledger,
    select_entry,
)
from repro.obs.export import (
    export_bundle,
    load_spans,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.manifest import run_manifest, write_manifest
from repro.obs.registry import Histogram, MetricsRegistry, MetricsSampler
from repro.obs.report import (
    breakdown_table,
    dominant_stage,
    json_report,
    packet_totals,
    percentile_packet,
    render_report,
    slowest_packets,
    stage_breakdown,
    timeline_table,
)
from repro.obs.span import (
    ALL_STAGES,
    ENCLOSING_STAGES,
    INSTANT_STAGES,
    LEAF_STAGES,
    NullTracer,
    SpanColumns,
    SpanTracer,
    TraceRecord,
    Tracer,
)
from repro.obs.telemetry import InstantEvent, Telemetry

__all__ = [
    "ALL_STAGES",
    "CAUSES",
    "ENCLOSING_STAGES",
    "ForensicsSpec",
    "INSTANT_STAGES",
    "LEAF_STAGES",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "MetricsSampler",
    "NullTracer",
    "SpanColumns",
    "SpanTracer",
    "Telemetry",
    "TraceRecord",
    "Tracer",
    "append_entry",
    "build_cluster_entry",
    "attribute_tail",
    "breakdown_table",
    "build_entry",
    "diff_entries",
    "dominant_stage",
    "export_bundle",
    "json_report",
    "load_ledger",
    "load_spans",
    "packet_totals",
    "percentile_packet",
    "render_diff",
    "render_forensics",
    "render_ledger",
    "render_report",
    "run_manifest",
    "select_entry",
    "slowest_packets",
    "stage_breakdown",
    "timeline_table",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_manifest",
]
