"""Tests for the repro.obs observability subsystem.

Covers the span tracer (including the per-packet index), the metrics
registry and sampler, instant-event derivation, the exporters (Chrome
trace + JSONL + bundle), the terminal reports, the CLI subcommands, the
sweep telemetry persistence -- and the two load-bearing guarantees:
leaf-stage spans partition end-to-end latency exactly, and results are
bit-identical with telemetry on or off.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import ScenarioConfig, run_scenario
from repro.faults import FaultSchedule
from repro.metrics.collectors import Counter
from repro.obs import (
    ALL_STAGES,
    LEAF_STAGES,
    Histogram,
    MetricsRegistry,
    MetricsSampler,
    NullTracer,
    SpanTracer,
    Telemetry,
    TraceRecord,
    breakdown_table,
    load_spans,
    percentile_packet,
    render_report,
    run_manifest,
    slowest_packets,
    stage_breakdown,
    timeline_table,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_per_packet_uses_index(self):
        t = SpanTracer()
        for pid in range(100):
            t.record(float(pid), "nf_service", pid, 1.0)
            t.record(float(pid) + 0.5, "sink", pid, 0.0)
        recs = t.per_packet(7)
        assert [r.stage for r in recs] == ["nf_service", "sink"]
        # The index answers without scanning: by_packet map holds them.
        assert t.per_packet(999) == []

    def test_index_matches_scan(self):
        t = SpanTracer()
        t.record(1.0, "nic_ring", 5, 0.1)
        t.record(2.0, "nf_service", 5, 0.5, 2)
        t.record(2.5, "nf_service", 6, 0.4, 0)
        scan = [r for r in t.records if r.packet_id == 5]
        assert t.per_packet(5) == scan
        assert sorted(t.packet_ids()) == [5, 6]

    def test_packet_total_sums_leaf_stages_only(self):
        t = SpanTracer()
        t.record(1.0, "nic_ring", 1, 0.1)
        t.record(3.0, "vswitch_queue", 1, 2.0)
        t.record(5.0, "path_transit", 1, 4.0, 0)  # enclosing: excluded
        t.record(5.0, "sink", 1, 0.0)
        assert t.packet_total(1) == pytest.approx(2.1)

    def test_clear_resets_index(self):
        t = SpanTracer()
        t.record(1.0, "sink", 1, 0.0)
        t.clear()
        assert len(t) == 0
        assert t.per_packet(1) == []
        assert list(t.packet_ids()) == []

    def test_start_property(self):
        t = SpanTracer()
        t.record(10.0, "nf_service", 1, 4.0)
        assert t.records[0].start == pytest.approx(6.0)

    def test_null_tracer_is_inert(self):
        NullTracer.record(1.0, "sink", 1, 0.0)
        assert not NullTracer.enabled
        assert len(NullTracer) == 0
        assert NullTracer.per_packet(1) == []
        assert NullTracer.by_stage() == {}

    def test_tracer_names_live_in_obs(self):
        # The deprecated repro.sim.trace alias was removed in 2.0; the
        # canonical names live in repro.obs (re-exported via repro.sim).
        from repro.obs.span import Tracer
        from repro.sim import NullTracer as N2

        t = Tracer()
        t.record(1.0, "vswitch_queue", 3, 2.0)
        assert isinstance(t, SpanTracer)
        assert t.stage_totals() == {"vswitch_queue": 2.0}
        assert N2 is NullTracer


class _ListTracer:
    """Reference tracer: the plain list-of-TraceRecord store that the
    columnar :class:`SpanTracer` must be observationally equal to."""

    def __init__(self):
        self.records = []

    def record(self, time, stage, packet_id, dt, extra=None):
        self.records.append(TraceRecord(time, stage, packet_id, dt, extra))

    def per_packet(self, pid):
        return [r for r in self.records if r.packet_id == pid]

    def packet_ids(self):
        return list(dict.fromkeys(r.packet_id for r in self.records))

    def packet_total(self, pid):
        recs = self.per_packet(pid)
        if not recs:
            return 0.0
        return sum(r.dt for r in recs if r.stage in LEAF_STAGES)

    def by_stage(self):
        out = {}
        for r in self.records:
            out.setdefault(r.stage, []).append(r.dt)
        return out

    def stage_totals(self):
        out = {}
        for r in self.records:
            out[r.stage] = out.get(r.stage, 0.0) + r.dt
        return out


_record_args = st.tuples(
    st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
              st.integers(0, 10**6)),                       # time
    st.sampled_from(ALL_STAGES + ("custom",)),              # stage
    st.integers(0, 7),                                      # packet id
    st.one_of(st.floats(-1e16, 1e16, allow_nan=False),
              st.sampled_from([1e16, 1.0, -1e16, 0.1])),    # dt
    st.one_of(st.none(), st.integers(0, 9), st.integers(-3, -1),
              st.text(max_size=3),
              st.fixed_dictionaries({
                  "copies": st.lists(st.integers(0, 99), max_size=3),
                  "paths": st.lists(st.integers(0, 3), max_size=3)}),
              st.fixed_dictionaries({"copies": st.lists(st.integers())})),
)


def _assert_same(tracer, ref):
    assert tracer.records == ref.records
    assert list(tracer.spans()) == [tuple(r) for r in ref.records]
    assert [type(r.time) for r in tracer.records] == \
        [type(r.time) for r in ref.records]
    assert len(tracer) == len(ref.records)
    assert tracer.packet_ids() == ref.packet_ids()
    for pid in ref.packet_ids() + [12345]:
        assert tracer.per_packet(pid) == ref.per_packet(pid)
        # Bit-exact: the same builtin sum() over the same leaf dts.
        assert repr(tracer.packet_total(pid)) == repr(ref.packet_total(pid))
    totals = tracer.leaf_totals()
    assert list(totals) == ref.packet_ids()
    assert [repr(v) for v in totals.values()] == \
        [repr(ref.packet_total(pid)) for pid in ref.packet_ids()]
    assert list(tracer.by_stage().items()) == list(ref.by_stage().items())
    assert list(tracer.stage_totals().items()) == \
        list(ref.stage_totals().items())


class TestColumnarTracerProperties:
    @given(st.lists(_record_args, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_list_reference(self, stream):
        tracer, ref = SpanTracer(), _ListTracer()
        for args in stream:
            tracer.record(*args)
            ref.record(*args)
        _assert_same(tracer, ref)

    @given(st.lists(_record_args, min_size=1, max_size=30),
           st.lists(_record_args, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_index_rebuilds_after_more_records(self, first, second):
        tracer, ref = SpanTracer(), _ListTracer()
        for args in first:
            tracer.record(*args)
            ref.record(*args)
        _assert_same(tracer, ref)
        for args in second:
            tracer.record(*args)
            ref.record(*args)
        _assert_same(tracer, ref)

    def test_adversarial_leaf_sum_is_builtin_sum(self):
        # 3.12's sum() is compensated (gives 1.0 here); earlier versions
        # and a naive or pairwise numpy reduction give 0.0.
        tracer = SpanTracer()
        for dt, stage in zip((1e16, 1.0, -1e16),
                             ("vswitch_queue", "nf_service", "sched_stall")):
            tracer.record(2e16, stage, 3, dt, 1)
        tracer.record(5.0, "sink", 4, 0.0)
        expected = sum([1e16, 1.0, -1e16])
        assert repr(tracer.packet_total(3)) == repr(expected)
        assert repr(tracer.leaf_totals()[3]) == repr(expected)
        assert tracer.packet_total(4) == 0
        assert tracer.leaf_totals([4, 3, 99]) == {4: 0, 3: expected, 99: 0.0}

    def test_replicate_dict_round_trips(self):
        tracer = SpanTracer()
        extra = {"copies": [11, 12], "paths": [0, 2, 3]}
        tracer.record(1.0, "replicate", 10, 0.0, extra)
        got = tracer.per_packet(10)[0].extra
        assert got == extra and got is not extra
        assert tracer.replicate_copies() == {10: (11, 12)}


# ----------------------------------------------------------------------
# Counter labels (satellite)
# ----------------------------------------------------------------------
class TestCounterLabels:
    def test_inc_with_labels(self):
        c = Counter()
        c.inc("drops", path=3, reason="overflow")
        c.inc("drops", 2, reason="overflow", path=3)  # kwarg order free
        assert c.get("drops", path=3, reason="overflow") == 3
        assert c.get("drops{path=3,reason=overflow}") == 3

    def test_as_dict_sorted(self):
        c = Counter()
        c.inc("zeta")
        c.inc("alpha", 5)
        c.inc("drops", path=1)
        assert list(c.as_dict()) == sorted(c.as_dict())
        assert c.as_dict()["alpha"] == 5


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("ingress")
        reg.counter("ingress", 4, path=2)
        assert reg.counters.get("ingress") == 1
        assert reg.counters.get("ingress", path=2) == 4

    def test_gauge_snapshot_series(self):
        reg = MetricsRegistry()
        depth = {"v": 3}
        reg.gauge("q.depth", lambda: depth["v"])
        reg.snapshot(10.0)
        depth["v"] = 7
        reg.snapshot(20.0)
        assert reg.series["q.depth"] == [(10.0, 3.0), (20.0, 7.0)]

    def test_duplicate_gauge_raises(self):
        reg = MetricsRegistry()
        reg.gauge("x", lambda: 0)
        with pytest.raises(ValueError):
            reg.gauge("x", lambda: 1)

    def test_histogram_quantiles(self):
        h = Histogram(quantiles=(0.5,))
        for v in range(1, 101):
            h.observe(float(v))
        d = h.as_dict()
        assert d["count"] == 100
        assert d["max"] == 100.0
        assert d["q0.5"] == pytest.approx(50.0, rel=0.2)
        assert h.mean == pytest.approx(50.5)

    def test_sampler_ticks_until_horizon(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("now", lambda: sim.now)
        sampler = MetricsSampler(sim, reg, interval=10.0, horizon=35.0)
        sampler.start()
        sim.run(until=100.0)
        times = [t for t, _ in reg.series["now"]]
        assert times == [10.0, 20.0, 30.0]

    def test_to_dict_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.gauge("a", lambda: 1)
        reg.snapshot(1.0)
        d = reg.to_dict()
        assert set(d) >= {"counters", "series"}


# ----------------------------------------------------------------------
# Parity: bit-identical with telemetry on/off (satellite)
# ----------------------------------------------------------------------
def _result_json(res):
    return json.dumps(res.to_dict(), sort_keys=True)


class TestTelemetryParity:
    CFG = dict(policy="adaptive", n_paths=4, load=0.75, duration=12_000.0,
               warmup=2_000.0, drain=4_000.0, seed=31)

    def test_plain_scenario_bit_identical(self):
        off = run_scenario(ScenarioConfig(**self.CFG))
        on = run_scenario(ScenarioConfig(**self.CFG), telemetry=Telemetry())
        assert _result_json(off) == _result_json(on)
        assert on.telemetry is not None and off.telemetry is None

    @pytest.mark.parametrize("kind", ["crash", "degrade"])
    def test_fault_scenario_bit_identical(self, kind):
        def sched():
            if kind == "crash":
                return FaultSchedule().crash(1, at=4_000.0, duration=3_000.0)
            return FaultSchedule().degrade(1, at=4_000.0, duration=3_000.0,
                                           factor=4.0)

        off = run_scenario(ScenarioConfig(faults=sched(), **self.CFG))
        tel = Telemetry()
        on = run_scenario(ScenarioConfig(faults=sched(), **self.CFG),
                          telemetry=tel)
        assert _result_json(off) == _result_json(on)
        names = {e.name for e in tel.events}
        assert f"fault:arm:{kind}" in names
        assert f"fault:clear:{kind}" in names
        if kind == "crash":
            assert "path:eject" in names
        else:
            # The traced service loop applies the degrade factor too.
            cols = tel.tracer.columns()
            on_path = (cols.stage == cols.code("nf_service")) & \
                (cols.extra == 1)
            start = cols.time - cols.dt
            inside = on_path & (start >= 4_000.0) & (cols.time <= 7_000.0)
            outside = on_path & ((cols.time < 4_000.0) | (start > 7_000.0))
            assert inside.any() and outside.any()
            assert cols.dt[inside].mean() > 2.0 * cols.dt[outside].mean()

    def test_metrics_off_spans_off_still_identical(self):
        off = run_scenario(ScenarioConfig(**self.CFG))
        on = run_scenario(ScenarioConfig(**self.CFG),
                      telemetry=Telemetry(spans=False, metrics_interval=0))
        assert _result_json(off) == _result_json(on)


# ----------------------------------------------------------------------
# Stage partition: leaf spans sum to end-to-end latency
# ----------------------------------------------------------------------
class TestStagePartition:
    @pytest.fixture(scope="class")
    def traced(self):
        tel = Telemetry()
        res = run_scenario(
            ScenarioConfig(policy="spray", n_paths=4, load=0.7,
                           duration=15_000.0, warmup=0.0, drain=5_000.0,
                           seed=9),
            telemetry=tel,
        )
        return tel, res

    def test_leaf_sum_equals_e2e_per_packet(self, traced):
        tel, _ = traced
        tr = tel.tracer
        checked = 0
        for pid in tr.packet_ids():
            recs = tr.per_packet(pid)
            stages = [r.stage for r in recs]
            if "sink" not in stages or "nic_ring" not in stages:
                continue  # dropped or still in flight at horizon
            t_done = max(r.time for r in recs if r.stage == "sink")
            t_nic = next(r for r in recs if r.stage == "nic_ring").start
            leaf = sum(r.dt for r in recs if r.stage in LEAF_STAGES)
            assert leaf == pytest.approx(t_done - t_nic, abs=1e-6), pid
            checked += 1
        assert checked > 1000

    def test_aggregate_within_one_percent_of_sink_mean(self, traced):
        tel, res = traced
        totals = [tel.tracer.packet_total(pid)
                  for pid in tel.tracer.packet_ids()]
        span_mean = sum(totals) / len(totals)
        assert span_mean == pytest.approx(res.summary.mean, rel=0.01)

    def test_breakdown_tables_render(self, traced):
        tel, res = traced
        text = breakdown_table(tel.tracer).render()
        for stage in LEAF_STAGES:
            assert stage in text
        report = render_report(tel.tracer, top_k=2, e2e_summary=res.summary)
        assert "slow packet" in report and "dominant" in report

    def test_slowest_and_percentile_packets(self, traced):
        tel, _ = traced
        top = slowest_packets(tel.tracer, k=5)
        assert len(top) == 5
        assert top[0][1] >= top[-1][1]
        pid = percentile_packet(tel.tracer, 99.9)
        assert pid is not None
        # The p99.9 packet is slower than ~99% of packets.
        totals = sorted(v for _, v in
                        __import__("repro.obs.report", fromlist=["packet_totals"]
                                   ).packet_totals(tel.tracer))
        assert tel.tracer.packet_total(pid) >= totals[int(0.99 * len(totals))]
        text = timeline_table(tel.tracer, pid).render()
        assert str(pid) in text

    def test_registry_gauges_registered(self, traced):
        tel, _ = traced
        assert any(k.startswith("path0.") for k in tel.registry.series)
        assert "sink.delivered" in tel.registry.series
        last = tel.registry.series["sink.delivered"][-1][1]
        assert last > 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    @pytest.fixture(scope="class")
    def traced(self):
        tel = Telemetry()
        sched = FaultSchedule().degrade(0, at=3_000.0, duration=3_000.0,
                                        factor=4.0)
        res = run_scenario(
            ScenarioConfig(policy="adaptive", n_paths=2, load=0.6,
                           duration=8_000.0, warmup=0.0, drain=3_000.0,
                           seed=5, faults=sched),
            telemetry=tel,
        )
        return tel, res

    def test_chrome_trace_schema(self, traced):
        tel, _ = traced
        doc = to_chrome_trace(tel)
        n = validate_chrome_trace(doc)
        assert n == len(doc["traceEvents"]) and n > 100
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases
        names = {ev["args"].get("name") for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert {"nic", "sink", "path0", "path1"} <= names

    def test_chrome_trace_sorted_and_complete(self, traced):
        tel, _ = traced
        events = to_chrome_trace(tel)["traceEvents"]
        body = [e for e in events if e["ph"] != "M"]
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)
        assert all("pid" in e and "tid" in e and "ts" in e for e in events)

    def test_validate_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "pid": 0,
                                                    "tid": 0, "ts": 1.0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "i", "pid": 0, "tid": 0, "ts": 5.0},
                {"ph": "i", "pid": 0, "tid": 0, "ts": 1.0},
            ]})

    def test_bundle_roundtrip(self, traced, tmp_path):
        tel, _ = traced
        paths = tel.export(tmp_path / "bundle")
        assert set(paths) == {"trace", "events", "metrics", "manifest"}
        doc = json.loads(open(paths["trace"]).read())
        validate_chrome_trace(doc)
        reloaded = load_spans(paths["events"])
        assert len(reloaded) == len(tel.tracer)
        assert reloaded.stage_totals() == pytest.approx(
            tel.tracer.stage_totals())
        man = json.loads(open(paths["manifest"]).read())
        assert man["schema"].startswith("repro.obs.manifest/")
        assert man["seed"] == 5
        assert len(man["code_fingerprint"]) == 64
        assert man["config"]["policy"] == "adaptive"

    def test_fault_instants_in_trace(self, traced):
        tel, _ = traced
        names = [ev["name"] for ev in to_chrome_trace(tel)["traceEvents"]
                 if ev["ph"] == "i"]
        assert "fault:arm:degrade" in names
        assert "fault:clear:degrade" in names

    def test_manifest_standalone(self):
        man = run_manifest(config={"policy": "single"}, seed=3)
        assert man["config_sha256"]
        assert man["versions"]["python"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCli:
    def test_trace_inline_and_report(self, capsys, tmp_path):
        from repro.cli import main

        out_dir = tmp_path / "bundle"
        rc = main(["trace", "--policy", "spray", "--paths", "2",
                   "--load", "0.5", "--duration", "10",
                   "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "vswitch_queue" in out
        assert "slow packet" in out
        assert (out_dir / "trace.json").exists()

        assert main(["report", str(out_dir), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out and "config_sha" in out

    def test_trace_config_file(self, capsys, tmp_path):
        from repro.cli import main

        cfg = ScenarioConfig(policy="single", n_paths=1, load=0.5,
                             duration=8_000.0, warmup=0.0, drain=2_000.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["trace", str(path), "--top", "1"]) == 0
        assert "nf_service" in capsys.readouterr().out

    def test_report_missing_artifact(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_bad_config_exits_2(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"policy": "frobnicate"}))
        assert main(["trace", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
class TestSweepTelemetry:
    def test_bundles_persisted_per_cell(self, tmp_path):
        from repro.sweep import Axis, SweepSpec, run_sweep

        spec = SweepSpec(
            name="obs-test",
            base={"load": 0.5, "duration": 4_000.0, "warmup": 0.0,
                  "drain": 1_000.0, "n_paths": 2},
            axes=[Axis("policy", ["single", "spray"])],
        )
        plain = run_sweep(spec, jobs=1, cache_dir=str(tmp_path / "c1"))
        traced = run_sweep(spec, jobs=1, cache_dir=str(tmp_path / "c2"),
                           telemetry=True)
        # Payloads identical with telemetry on.
        assert [c.identity_dict() for c in plain.cells] == \
               [c.identity_dict() for c in traced.cells]
        tel_root = tmp_path / "c2" / "telemetry"
        bundles = sorted(tel_root.iterdir())
        assert len(bundles) == 2
        for b in bundles:
            assert (b / "trace.json").exists()
            assert (b / "events.jsonl").exists()
            assert (b / "manifest.json").exists()
            validate_chrome_trace(json.loads((b / "trace.json").read_text()))

    def test_cached_cell_without_bundle_is_resimulated(self, tmp_path):
        from repro.sweep import Axis, SweepSpec, run_sweep

        spec = SweepSpec(
            name="obs-test2",
            base={"load": 0.5, "duration": 3_000.0, "warmup": 0.0,
                  "drain": 1_000.0, "n_paths": 1},
            axes=[Axis("policy", ["single"])],
        )
        first = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        assert first.cache_misses == 1
        # Cache is warm but no bundle exists: telemetry forces a re-run.
        second = run_sweep(spec, jobs=1, cache_dir=str(tmp_path),
                           telemetry=True)
        assert second.cache_misses == 1
        third = run_sweep(spec, jobs=1, cache_dir=str(tmp_path),
                          telemetry=True)
        assert third.cache_hits == 1
