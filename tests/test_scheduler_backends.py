"""Engine-level tests for the pluggable scheduler backends.

``Simulator`` runs on either a binary heap or a calendar queue
(:mod:`repro.sim.calqueue`); the backends must be observationally
identical -- same dispatch order, same results, byte-identical payloads
-- for every workload the library can produce.  This file pins that
contract through the public API: direct ``Simulator`` use, ``repro.run``
with every observation combination, sweeps, and cluster runs; plus the
backend-adjacent engine behaviors (sequence-space guard, lazy-deletion
compaction, pooled-timeout recycling).
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro import FaultSchedule, RunOptions, ScenarioConfig, Telemetry
from repro.cluster import ClusterConfig, FabricConfig, run_cluster
from repro.sim.engine import (
    _COMPACT_MIN,
    _SEQ_MAX,
    LOW,
    NORMAL,
    URGENT,
    SCHEDULERS,
    Simulator,
    default_scheduler,
)
from repro.sim.errors import SimulationError
from repro.sweep import Axis, SweepSpec, run_sweep

BACKENDS = list(SCHEDULERS)

BASE = dict(
    policy="adaptive",
    n_paths=4,
    load=0.7,
    duration=8_000.0,
    warmup=1_000.0,
    drain=4_000.0,
    seed=42,
)


def payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_base(scheduler, **kw):
    return repro.run(ScenarioConfig(**BASE), RunOptions(scheduler=scheduler, **kw))


# ----------------------------------------------------------------------
# Backend selection plumbing
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_calendar(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        assert default_scheduler() == "calendar"
        assert Simulator().scheduler == "calendar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "heap")
        assert default_scheduler() == "heap"
        assert Simulator().scheduler == "heap"
        # explicit argument beats the environment
        assert Simulator(scheduler="calendar").scheduler == "calendar"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "splay-tree")
        with pytest.raises(SimulationError, match="splay-tree"):
            default_scheduler()

    def test_invalid_argument_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(scheduler="fibheap")

    def test_run_options_validates(self):
        with pytest.raises(ValueError, match="scheduler"):
            RunOptions(scheduler="fibheap")


# ----------------------------------------------------------------------
# Behavioral equivalence through the Simulator API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", BACKENDS)
class TestEngineBehavior:
    def test_same_time_priority_interleaving(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        out = []
        sim.call_at(5.0, out.append, "low-1", priority=LOW)
        sim.call_at(5.0, out.append, "urgent-1", priority=URGENT)
        sim.call_at(5.0, out.append, "normal-1", priority=NORMAL)
        sim.call_at(5.0, out.append, "urgent-2", priority=URGENT)
        sim.call_at(5.0, out.append, "low-2", priority=LOW)
        sim.run()
        assert out == ["urgent-1", "urgent-2", "normal-1", "low-1", "low-2"]

    def test_seq_space_guard(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        sim._seq = _SEQ_MAX  # next allocation would overflow the packing
        with pytest.raises(SimulationError, match="sequence space exhausted"):
            sim.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="sequence space exhausted"):
            sim.call_in(1.0, lambda: None)
        with pytest.raises(SimulationError, match="sequence space exhausted"):
            sim.timeout(1.0)

    def test_seq_below_guard_still_works(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        sim._seq = _SEQ_MAX - 2
        out = []
        sim.call_at(1.0, out.append, 1)
        sim.call_at(1.0, out.append, 2)
        sim.run()
        assert out == [1, 2]

    def test_pooled_timeout_recycled_not_retained(self, scheduler):
        # The retention contract: a pooled timeout is reclaimed right
        # after its callbacks run.  The resumed process allocates its
        # next timeout *during* those callbacks, so recycling shows up
        # one hop later: the third yield reuses the first object.
        sim = Simulator(scheduler=scheduler)
        seen = []

        def proc():
            for _ in range(3):
                t = sim.pooled_timeout(1.0)
                seen.append(t)
                yield t

        sim.process(proc())
        sim.run()
        assert seen[1] is not seen[0]  # first still in flight at that point
        assert seen[2] is seen[0]  # recycled through the free list
        assert len(sim._timeout_pool) == 2  # all reclaimed at the end

    def test_cancel_heavy_schedule_stays_bounded(self, scheduler):
        # Regression test for lazy deletion: cancelling periodics leaves
        # dead entries behind, and compaction must keep the schedule from
        # growing linearly with cancellations.
        sim = Simulator(scheduler=scheduler)
        n = 40 * _COMPACT_MIN
        live = sim.periodic(1.0, lambda: None)

        def churn():
            for i in range(n):
                h = sim.periodic(1_000_000.0, lambda: None)
                h.cancel()
                yield sim.pooled_timeout(0.001)

        sim.process(churn())
        # sample pending_count as the churn runs
        probe = sim.periodic(0.5, lambda: None)
        sim.run(until=sim.now + n * 0.001 + 1.0)
        probe.cancel()
        live.cancel()
        # dead entries never dominate: the bound is one compaction period
        # (live entries + as many dead ones), far below n.
        assert sim.pending_count <= 2 * (_COMPACT_MIN + 16)
        assert sim._dead * 2 <= sim.pending_count + 2 * _COMPACT_MIN

    def test_cancelled_periodic_never_fires_after_compaction(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        fired = []
        handles = [sim.periodic(1.0, lambda i=i: fired.append(i))
                   for i in range(2 * _COMPACT_MIN)]
        for h in handles[1:]:
            h.cancel()
        sim.run(until=5.5)
        handles[0].cancel()
        assert set(fired) == {0}
        assert handles[0].fired == 5


class TestPendingCount:
    """``pending_count`` read from inside a callback is exact on both
    backends (the calendar drain once reconciled it per bucket visit)."""

    @staticmethod
    def _reads(scheduler, schedule):
        sim = Simulator(scheduler=scheduler)
        reads = []
        schedule(sim, reads)
        sim.run()
        return reads

    @staticmethod
    def _same_time(sim, reads):
        for _ in range(1000):
            sim.call_at(5.0, lambda: reads.append(sim.pending_count))

    @staticmethod
    def _mixed(sim, reads):
        rng = random.Random(7)

        def fire(depth):
            reads.append(sim.pending_count)
            if depth:
                for _ in range(rng.randint(0, 2)):
                    sim.call_in(rng.choice([0.0, rng.random() * 50.0]),
                                fire, depth - 1)

        for _ in range(300):
            sim.call_at(rng.random() * 100.0, fire, 3,
                        priority=rng.choice([URGENT, NORMAL, LOW]))

    def test_same_time_burst_counts_down(self):
        assert self._reads("heap", self._same_time) == list(range(999, -1, -1))
        assert self._reads("calendar", self._same_time) == \
            list(range(999, -1, -1))

    def test_identical_across_backends_with_pushes(self):
        heap = self._reads("heap", self._mixed)
        assert len(heap) > 300
        assert self._reads("calendar", self._mixed) == heap


# ----------------------------------------------------------------------
# Cross-backend bit-identity for every golden scenario
# ----------------------------------------------------------------------
class TestCrossBackendIdentity:
    def pair(self, **opt_kw):
        return [payload(run_base(s, **opt_kw)) for s in BACKENDS]

    def test_plain_run(self):
        a, b = self.pair()
        assert a == b

    def test_telemetry_on(self):
        off = self.pair()
        on = [payload(run_base(s, telemetry=Telemetry())) for s in BACKENDS]
        assert on[0] == on[1] == off[0]

    def test_faulted_run(self):
        results = []
        for s in BACKENDS:
            sched = FaultSchedule().crash(path=1, at=3_000.0, duration=2_000.0)
            results.append(payload(run_base(s, faults=sched)))
        assert results[0] == results[1]

    def test_check_armed(self):
        a, b = [payload(run_base(s, check=True)) for s in BACKENDS]
        assert a == b

    def test_sweep_jobs_1_vs_4_both_backends(self, monkeypatch, tmp_path):
        spec_kw = dict(
            name="backend-smoke",
            base=dict(policy="adaptive", load=0.6, duration=5_000.0,
                      warmup=500.0, drain=2_000.0, seed=7),
            axes=[Axis("load", [0.4, 0.7])],
        )
        payloads = set()
        for scheduler in BACKENDS:
            monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
            for jobs in (1, 4):
                sweep = run_sweep(SweepSpec(**spec_kw), jobs=jobs,
                                  cache=False, progress=None)
                # cells only: the envelope carries wall-clock timings
                canon = [(c.params, c.summary.to_dict(), c.exact, c.stats)
                         for c in sweep.cells]
                payloads.add(json.dumps(canon, sort_keys=True))
        assert len(payloads) == 1

    def test_cluster_workers_1_vs_4_both_backends(self):
        template = ScenarioConfig(policy="adaptive", n_paths=4, load=0.4,
                                  duration=4_000.0, warmup=500.0,
                                  drain=1_500.0)
        payloads = set()
        for scheduler in BACKENDS:
            cc = ClusterConfig.uniform_hosts(3, template, FabricConfig())
            for workers in (1, 4):
                res = run_cluster(cc, workers=workers, scheduler=scheduler)
                payloads.add(json.dumps(res.to_dict(), sort_keys=True))
        assert len(payloads) == 1
