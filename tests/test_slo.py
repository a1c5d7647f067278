"""Tests for the declarative SLO engine (`repro.slo`).

Covers the objective grammar and spec round-trip, the windowed
attainment tracker, the autotuner's scale-up/scale-down ladders with
hysteresis and blame memory, administrative path parking through the
controller, and the `repro.run(slo=...)` integration surface.
"""

import json
import math

import pytest

import repro
from repro import (
    MpdpConfig,
    MultipathDataPlane,
    RngRegistry,
    ScenarioConfig,
    Simulator,
)
from repro.slo import SloAutotuner, SloObjective, SloSpec


# ----------------------------------------------------------------------
# Objective grammar
# ----------------------------------------------------------------------
class TestSloObjective:
    def test_parse_latency_default_unit_is_us(self):
        o = SloObjective.parse("p99 <= 800")
        assert (o.metric, o.op, o.threshold) == ("p99", "<=", 800.0)

    @pytest.mark.parametrize("text, us", [
        ("p99 <= 800us", 800.0),
        ("p99 <= 1.5ms", 1_500.0),
        ("p99 <= 0.002s", 2_000.0),
        ("mean <= 2e2us", 200.0),
    ])
    def test_parse_unit_normalization(self, text, us):
        assert SloObjective.parse(text).threshold == pytest.approx(us)

    def test_parse_delivery(self):
        o = SloObjective.parse("delivery >= 99.9%")
        assert (o.metric, o.op, o.threshold) == ("delivery", ">=", 99.9)
        # '%' is optional on delivery objectives.
        assert SloObjective.parse("delivery >= 99.9") == o

    def test_canonical_round_trip_is_identity(self):
        for text in ("p50 <= 10us", "p999 <= 2.5ms", "delivery >= 99.99%",
                     "mean <= 100us"):
            o = SloObjective.parse(text)
            assert SloObjective.parse(o.canonical()) == o
            # Canonical form is itself canonical.
            assert SloObjective.parse(o.canonical()).canonical() == o.canonical()

    @pytest.mark.parametrize("bad", [
        "p42 <= 100us",            # unknown metric
        "p99 >= 100us",            # latency must use <=
        "delivery <= 99%",         # delivery must use >=
        "delivery >= 150%",        # out of (0, 100]
        "delivery >= 99ms",        # wrong unit for delivery
        "p99 <= 100%",             # wrong unit for latency
        "p99 <= -5us",             # regex rejects the sign entirely
        "p99 <= us",               # no value
        "gibberish",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SloObjective.parse(bad)

    def test_constructor_validates_normalized_values(self):
        with pytest.raises(ValueError):
            SloObjective("p99", "<=", 0.0)
        with pytest.raises(ValueError):
            SloObjective("p99", "<=", float("inf"))
        with pytest.raises(ValueError):
            SloObjective("delivery", ">=", 0.0)

    def test_check_semantics(self):
        lat = SloObjective.parse("p99 <= 100us")
        assert lat.check({"p99": 100.0})          # boundary passes
        assert not lat.check({"p99": 100.1})
        assert lat.check({})                       # missing: vacuously true
        assert lat.check({"p99": float("nan")})    # NaN: vacuously true
        dlv = SloObjective.parse("delivery >= 99%")
        assert dlv.check({"delivery": 99.0})
        assert not dlv.check({"delivery": 98.9})

    def test_ratio_semantics(self):
        lat = SloObjective.parse("p99 <= 200us")
        assert lat.ratio({"p99": 100.0}) == pytest.approx(0.5)
        assert lat.ratio({}) == 0.0
        assert lat.ratio({"p99": float("nan")}) == 0.0
        assert SloObjective.parse("delivery >= 99%").ratio(
            {"delivery": 50.0}) == 0.0


# ----------------------------------------------------------------------
# Spec validation and serialization
# ----------------------------------------------------------------------
class TestSloSpec:
    def test_strings_parse_on_construction(self):
        spec = SloSpec(objectives=("p99 <= 800us", "delivery >= 99.9%"))
        assert all(isinstance(o, SloObjective) for o in spec.objectives)
        assert spec.quantiles() == [0.99]
        assert not spec.wants_mean()

    def test_quantiles_sorted_and_mean_flag(self):
        spec = SloSpec(objectives=("p999 <= 1ms", "p50 <= 20us",
                                   "mean <= 50us"))
        assert spec.quantiles() == [0.50, 0.999]
        assert spec.wants_mean()

    def test_validate_requires_objectives(self):
        with pytest.raises(ValueError, match="at least one objective"):
            SloSpec().validate()

    def test_validate_rejects_duplicate_metric(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloSpec(objectives=("p99 <= 1ms", "p99 <= 2ms")).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(window=0.0),
        dict(min_paths=0),
        dict(min_paths=3, max_paths=2),
        dict(start_paths=0),
        dict(cooldown=-1.0),
        dict(hold_windows=0),
        dict(margin=0.0),
        dict(margin=1.5),
        dict(penalty=-1.0),
        dict(replication_step=0.0),
        dict(replication_max=1.5),
        dict(flowlet_floor=0.0),
    ])
    def test_validate_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SloSpec(objectives=("p99 <= 1ms",), **kwargs).validate()

    def test_round_trip(self):
        spec = SloSpec(
            objectives=("p99 <= 1.5ms", "delivery >= 99.9%"),
            name="tight", window=2_000.0, autotune=True,
            start_paths=2, cooldown=5_000.0, penalty=15_000.0,
        )
        data = spec.to_dict()
        # Objectives serialize canonically (µs / %), JSON-safe.
        assert data["objectives"] == ["p99 <= 1500us", "delivery >= 99.9%"]
        clone = SloSpec.from_dict(json.loads(json.dumps(data)))
        assert clone == spec
        assert clone.to_dict() == data

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SloSpec field"):
            SloSpec.from_dict({"objectives": ["p99 <= 1ms"], "windw": 1.0})


# ----------------------------------------------------------------------
# Autotuner unit tests (hand-driven windows, no traffic)
# ----------------------------------------------------------------------
def make_world(n_paths=4, policy="adaptive", controller_interval=500.0):
    sim = Simulator()
    host = MultipathDataPlane(
        sim,
        MpdpConfig(n_paths=n_paths, policy=policy,
                   controller_interval=controller_interval),
        RngRegistry(seed=3),
    )
    return sim, host


def violating(p99=500.0):
    return {"ok": False, "count": 100, "metrics": {"p99": p99},
            "violations": ["p99 <= 100us"]}


def comfortable(p99=10.0):
    return {"ok": True, "count": 100, "metrics": {"p99": p99},
            "violations": []}


class TestSloAutotuner:
    def test_requires_controller(self):
        sim, host = make_world(controller_interval=0.0)
        assert host.controller is None
        with pytest.raises(ValueError, match="PathController"):
            SloAutotuner(sim, SloSpec(objectives=("p99 <= 100us",)), host)

    def test_start_paths_exceeding_n_paths_rejected(self):
        sim, host = make_world(n_paths=2)
        with pytest.raises(ValueError, match="start_paths"):
            SloAutotuner(
                sim, SloSpec(objectives=("p99 <= 100us",), start_paths=3),
                host)

    def test_start_parks_highest_ids(self):
        sim, host = make_world()
        at = SloAutotuner(
            sim, SloSpec(objectives=("p99 <= 100us",), start_paths=2), host)
        at.start()
        assert host.controller.admin_down == {2, 3}
        assert at.active_log == [[0.0, 2]]
        # Parked paths are excluded from steering.
        assert sorted(host.controller.live_ids) == [0, 1]

    def test_scale_up_ladder_order_and_caps(self):
        sim, host = make_world()
        spec = SloSpec(objectives=("p99 <= 100us",), autotune=True,
                       start_paths=2, cooldown=0.0)
        at = SloAutotuner(sim, spec, host)
        at.start()
        base_rep = host.policy.replication_budget
        base_flw = host.policy.table.timeout
        for i in range(20):
            at.observe(violating(), i)
        knobs = [d["knob"] for d in at.decisions]
        # Paths first (lowest parked id unparked first), then
        # replication to its cap, then flowlet halving to its floor.
        assert knobs[:2] == ["paths", "paths"]
        assert at.decisions[0]["to"] == 3 and at.decisions[1]["to"] == 4
        assert host.controller.admin_down == set()
        rep_steps = [d for d in at.decisions if d["knob"] == "replication"]
        assert rep_steps and rep_steps[0]["from"] == pytest.approx(base_rep)
        assert host.policy.replication_budget == pytest.approx(
            spec.replication_max)
        flw_steps = [d for d in at.decisions if d["knob"] == "flowlet_timeout"]
        assert flw_steps and flw_steps[0]["from"] == pytest.approx(base_flw)
        assert host.policy.table.timeout >= spec.flowlet_floor
        # Ladder exhausted: further violations change nothing.
        n = len(at.decisions)
        at.observe(violating(), 99)
        assert len(at.decisions) == n
        # Every decision carries the violation it reacted to.
        assert all(d["reason"] == "p99 <= 100us" for d in at.decisions)

    def test_cooldown_suppresses_consecutive_actions(self):
        sim, host = make_world()
        spec = SloSpec(objectives=("p99 <= 100us",), autotune=True,
                       start_paths=1, cooldown=5_000.0)
        at = SloAutotuner(sim, spec, host)
        at.start()
        at.observe(violating(), 0)
        at.observe(violating(), 1)  # still inside the cooldown (now == 0)
        assert len(at.decisions) == 1

    def test_scale_down_reverse_ladder(self):
        sim, host = make_world()
        spec = SloSpec(objectives=("p99 <= 100us",), autotune=True,
                       cooldown=0.0, hold_windows=2, penalty=0.0)
        at = SloAutotuner(sim, spec, host)
        at.start()
        base_flw = host.policy.table.timeout
        # Pre-tighten both knobs as a scale-up would have.
        host.policy.table.timeout = base_flw / 4.0
        host.policy.replication_budget += 2 * spec.replication_step
        for i in range(40):
            at.observe(comfortable(), i)
        knobs = [d["knob"] for d in at.decisions]
        # Reverse order: flowlet back to base, then replication, then paths.
        assert knobs[:2] == ["flowlet_timeout", "flowlet_timeout"]
        assert host.policy.table.timeout == pytest.approx(base_flw)
        assert "replication" in knobs
        assert knobs.index("replication") < knobs.index("paths")
        # Paths never drop below min_paths; highest ids parked first.
        assert at.decisions[-1]["to"] == spec.min_paths
        assert host.controller.admin_down == {1, 2, 3}
        assert all(d["action"] == "scale_down" for d in at.decisions)

    def test_hold_windows_hysteresis(self):
        sim, host = make_world()
        spec = SloSpec(objectives=("p99 <= 100us",), autotune=True,
                       cooldown=0.0, hold_windows=3, penalty=0.0)
        at = SloAutotuner(sim, spec, host)
        at.start()
        at.observe(comfortable(), 0)
        at.observe(comfortable(), 1)
        assert not at.decisions           # streak 2 < hold_windows 3
        # A merely-ok (not comfortable) window resets the streak.
        at.observe(comfortable(p99=90.0), 2)   # ratio 0.9 > margin 0.8
        at.observe(comfortable(), 3)
        at.observe(comfortable(), 4)
        assert not at.decisions
        at.observe(comfortable(), 5)
        assert len(at.decisions) == 1

    def test_blame_memory_blocks_oscillation(self):
        sim, host = make_world()
        spec = SloSpec(objectives=("p99 <= 100us",), autotune=True,
                       start_paths=2, cooldown=0.0, hold_windows=1,
                       penalty=30_000.0)
        at = SloAutotuner(sim, spec, host)
        at.start()
        # Violation at 2 active paths: scale to 3 and blame count 2.
        at.observe(violating(), 0)
        assert at._active_count() == 3
        # Comfortable windows now want to park back down to 2, but the
        # blame memory forbids returning to a proven-bad count until the
        # penalty expires (sim.now stays 0 here).
        for i in range(10):
            at.observe(comfortable(), i + 1)
        assert at._active_count() == 3
        assert not any(d["knob"] == "paths" and d["action"] == "scale_down"
                       for d in at.decisions)

    def test_empty_window_is_no_evidence(self):
        sim, host = make_world()
        spec = SloSpec(objectives=("p99 <= 100us",), autotune=True,
                       cooldown=0.0, hold_windows=1, penalty=0.0)
        at = SloAutotuner(sim, spec, host)
        at.start()
        empty = {"ok": True, "count": 0, "metrics": {"delivery": 100.0},
                 "violations": []}
        for i in range(5):
            at.observe(empty, i)
        assert not at.decisions

    def test_path_seconds_integral(self):
        sim, host = make_world()
        at = SloAutotuner(
            sim, SloSpec(objectives=("p99 <= 100us",)), host,
            warmup=1_000.0)
        at.active_log = [[0.0, 4], [2_000.0, 3], [4_000.0, 2]]
        # 4 paths over [1000, 2000) + 3 over [2000, 4000) + 2 over
        # [4000, 6000) = 4000 + 6000 + 4000 path-µs.
        assert at.path_seconds(6_000.0) == pytest.approx(14_000.0 / 1e6)
        assert at.path_seconds(500.0) == 0.0


# ----------------------------------------------------------------------
# Controller parking (the autotuner's actuator)
# ----------------------------------------------------------------------
class TestAdminParking:
    def test_park_unpark_cycle(self):
        _, host = make_world()
        ctl = host.controller
        assert ctl.set_admin_down(3)
        assert 3 in ctl.admin_down and 3 not in ctl.live_ids
        assert not ctl.set_admin_down(3)     # idempotent: already parked
        assert ctl.set_admin_up(3)
        assert 3 not in ctl.admin_down
        assert not ctl.set_admin_up(3)       # idempotent: already up

    def test_refuses_to_park_last_live_path(self):
        _, host = make_world(n_paths=2)
        ctl = host.controller
        assert ctl.set_admin_down(1)
        assert not ctl.set_admin_down(0)
        assert ctl.live_ids == [0]


# ----------------------------------------------------------------------
# Tracker + run() integration
# ----------------------------------------------------------------------
RUN_KW = dict(policy="adaptive", n_paths=4, load=0.4, duration=8_000.0,
              warmup=1_000.0, drain=3_000.0, seed=11)


class TestTrackerIntegration:
    def test_no_slo_means_no_report(self):
        result = repro.run(ScenarioConfig(**RUN_KW))
        assert result.slo_report is None

    def test_generous_slo_attains_everything(self):
        spec = SloSpec(objectives=("p99 <= 1s", "delivery >= 1%"),
                       window=1_000.0)
        result = repro.run(ScenarioConfig(**RUN_KW), slo=spec)
        rep = result.slo_report
        assert rep["n_windows"] >= 7
        assert rep["attainment"] == 1.0
        assert rep["attained"] == rep["n_windows"]
        assert rep["violated_windows"] == []
        assert rep["decisions"] == []
        # Windows during the traffic phase carry latency evidence; the
        # trailing drain windows are empty and vacuously attained.
        busy = [w for w in rep["windows"] if w["count"] > 0]
        assert len(busy) >= 7
        for w in busy:
            assert w["ok"]
            assert w["metrics"]["p99"] > 0
            assert w["metrics"]["delivery"] == pytest.approx(100.0)

    def test_impossible_slo_violates_everywhere(self):
        spec = SloSpec(objectives=("p99 <= 0.001us",), window=1_000.0)
        result = repro.run(ScenarioConfig(**RUN_KW), slo=spec)
        rep = result.slo_report
        busy = [w for w in rep["windows"] if w["count"] > 0]
        assert busy
        # Every window that saw a delivery violates; empty drain windows
        # are vacuously ok (no latency sample to judge).
        assert all(w["violations"] == ["p99 <= 0.001us"] for w in busy)
        assert rep["attainment"] < 1.0
        assert len(rep["violated_windows"]) == len(busy)

    def test_windows_tile_the_measured_span(self):
        spec = SloSpec(objectives=("p99 <= 1s",), window=1_000.0)
        rep = repro.run(ScenarioConfig(**RUN_KW), slo=spec).slo_report
        starts = [w["start"] for w in rep["windows"]]
        assert starts[0] == RUN_KW["warmup"]
        for prev, cur in zip(rep["windows"], rep["windows"][1:]):
            assert cur["start"] == prev["end"]
            assert cur["end"] - cur["start"] == pytest.approx(1_000.0)

    def test_static_path_seconds_scales_with_start_paths(self):
        spec4 = SloSpec(objectives=("p99 <= 1s",), window=2_000.0)
        spec2 = SloSpec(objectives=("p99 <= 1s",), window=2_000.0,
                        start_paths=2)
        rep4 = repro.run(ScenarioConfig(**RUN_KW), slo=spec4).slo_report
        rep2 = repro.run(ScenarioConfig(**RUN_KW), slo=spec2).slo_report
        assert rep4["active_log"] == [[0.0, 4]]
        assert rep2["active_log"][0][1] == 2
        assert rep2["path_seconds"] == pytest.approx(
            rep4["path_seconds"] / 2.0)

    def test_mean_objective_is_tracked(self):
        spec = SloSpec(objectives=("mean <= 1s",), window=2_000.0)
        rep = repro.run(ScenarioConfig(**RUN_KW), slo=spec).slo_report
        for w in rep["windows"]:
            assert math.isfinite(w["metrics"]["mean"])
            assert w["metrics"]["mean"] > 0

    def test_slo_kwarg_matches_config_field(self):
        def mk():
            return SloSpec(objectives=("p99 <= 1ms",), window=2_000.0)
        via_kwarg = repro.run(ScenarioConfig(**RUN_KW), slo=mk())
        via_config = repro.run(ScenarioConfig(slo=mk(), **RUN_KW))
        assert (json.dumps(via_kwarg.slo_report, sort_keys=True)
                == json.dumps(via_config.slo_report, sort_keys=True))

    def test_report_survives_result_round_trip(self):
        from repro.bench.scenarios import SimulationResult

        spec = SloSpec(objectives=("p99 <= 1ms",), window=2_000.0)
        result = repro.run(ScenarioConfig(**RUN_KW), slo=spec)
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone.slo_report == result.slo_report

    def test_config_round_trip_preserves_spec(self):
        cfg = ScenarioConfig(
            slo=SloSpec(objectives=("p99 <= 1.5ms", "delivery >= 99%"),
                        autotune=True, start_paths=2),
            **RUN_KW)
        clone = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone.slo == cfg.slo

    def test_config_validate_rejects_bad_spec(self):
        cfg = ScenarioConfig(slo=SloSpec(objectives=()), **RUN_KW)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_autotuned_run_records_decisions(self):
        spec = SloSpec(objectives=("p99 <= 150us", "delivery >= 99%"),
                       window=1_000.0, autotune=True, start_paths=1,
                       cooldown=2_000.0, hold_windows=4, margin=0.7)
        result = repro.run(
            ScenarioConfig(**{**RUN_KW, "load": 0.35, "chain": "heavy",
                              "duration": 20_000.0, "drain": 6_000.0}),
            slo=spec)
        rep = result.slo_report
        ups = [d for d in rep["decisions"] if d["action"] == "scale_up"]
        assert ups, "one active path at this load must trigger a scale-up"
        assert rep["active_log"][0][1] == 1
        assert rep["active_log"][-1][1] > 1
        # Decision timestamps land on window closes, in order.
        times = [d["time"] for d in rep["decisions"]]
        assert times == sorted(times)


class TestViolationAttribution:
    def test_events_emitted_with_dominant_stage(self):
        telemetry = repro.Telemetry()
        spec = SloSpec(objectives=("p99 <= 5us",), window=2_000.0)
        repro.run(ScenarioConfig(**RUN_KW),
                  repro.RunOptions(telemetry=telemetry), slo=spec)
        events = [e for e in telemetry.events if e.name == "slo:violation"]
        assert events, "a 5us p99 bound must violate"
        attributed = [e for e in events if "dominant_stage" in e.args]
        assert attributed, "span data present, so attribution must appear"
        from repro.obs.span import LEAF_STAGES
        for e in attributed:
            assert e.args["dominant_stage"] in LEAF_STAGES
            assert 0.0 < e.args["stage_share"] <= 1.0
            assert e.args["attributed_packets"] > 0
            assert e.track == "slo"

    def test_no_spans_means_events_without_attribution(self):
        telemetry = repro.Telemetry(spans=False)
        spec = SloSpec(objectives=("p99 <= 5us",), window=2_000.0)
        repro.run(ScenarioConfig(**RUN_KW),
                  repro.RunOptions(telemetry=telemetry), slo=spec)
        events = [e for e in telemetry.events if e.name == "slo:violation"]
        assert events
        assert all("dominant_stage" not in e.args for e in events)

    def test_attribution_stays_out_of_the_report(self):
        telemetry = repro.Telemetry()
        spec = SloSpec(objectives=("p99 <= 5us",), window=2_000.0)
        result = repro.run(ScenarioConfig(**RUN_KW),
                           repro.RunOptions(telemetry=telemetry), slo=spec)
        text = json.dumps(result.slo_report)
        assert "dominant_stage" not in text
