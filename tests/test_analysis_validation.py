"""Validation: the simulator against closed-form queueing theory.

If the data-plane model disagrees with M/D/1 / M/G/1 in the regimes
where those are exact, its tail measurements mean nothing.  These tests
wire minimal configurations (one path, no jitter, no batching overhead)
and require a few-percent match to the Pollaczek-Khinchine formulas.
"""

import math

import numpy as np
import pytest

from repro.analysis import (
    effective_service_rate,
    md1_mean_wait,
    mg1_mean_wait,
    mm1_mean_sojourn,
    mm1_mean_wait,
    mm1_sojourn_quantile,
    stall_availability,
    stall_tail_bound,
    utilization,
)
from repro.dataplane.path import DataPath, PathConfig
from repro.dataplane.vcpu import JitterParams, SHARED_CORE
from repro.elements import Chain, Delay
from repro.net import PacketFactory, PoissonSource
from repro.sim import Simulator


class TestFormulas:
    def test_utilization(self):
        assert utilization(500_000, 1.0) == pytest.approx(0.5)

    def test_mm1_wait_grows_with_rho(self):
        assert mm1_mean_wait(0.9, 1.0) > mm1_mean_wait(0.5, 1.0)

    def test_mm1_sojourn_is_wait_plus_service(self):
        rho, s = 0.6, 2.0
        assert mm1_mean_sojourn(rho, s) == pytest.approx(mm1_mean_wait(rho, s) + s)

    def test_md1_is_half_mm1(self):
        assert md1_mean_wait(0.7, 1.5) == pytest.approx(mm1_mean_wait(0.7, 1.5) / 2)

    def test_mg1_reduces_to_md1(self):
        s = 2.0
        lam_pps = 300_000.0  # rho = 0.6
        assert mg1_mean_wait(lam_pps, s, s**2) == pytest.approx(md1_mean_wait(0.6, s))

    def test_mm1_quantile_monotone(self):
        assert mm1_sojourn_quantile(0.5, 1.0, 0.99) > mm1_sojourn_quantile(0.5, 1.0, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mm1_mean_wait(1.0, 1.0)
        with pytest.raises(ValueError):
            mm1_sojourn_quantile(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            mg1_mean_wait(100.0, 2.0, 1.0)  # E[S^2] < E[S]^2

    def test_availability(self):
        assert stall_availability(JitterParams()) == 1.0
        a = stall_availability(SHARED_CORE)
        assert 0.9 < a < 1.0

    def test_effective_rate_scales(self):
        base = 1e6
        assert effective_service_rate(JitterParams(), base) == base
        assert effective_service_rate(SHARED_CORE, base) < base

    def test_tail_bound_regimes(self):
        assert stall_tail_bound(JitterParams(), 0.99) == 0.0
        # Shared core stalls ~3% of the time: the p99 is inside the
        # stall regime and the bound exceeds half the mean stall.
        b = stall_tail_bound(SHARED_CORE, 0.99)
        assert b > SHARED_CORE.mean_stall() / 2
        # p50 is far outside the stall-hit probability -> no floor.
        assert stall_tail_bound(SHARED_CORE, 0.5) == 0.0


def run_single_queue(rate_pps, service_us, duration=400_000.0, exp_service=False,
                     seed=3):
    """Minimal single-server queue: Poisson arrivals, fixed/exp service,
    no jitter, no batch overhead, no flow cache cost.

    Returns ``(waits, sojourns)`` after a 20% warmup.  Sojourns are taken
    in ``on_done`` as ``now - t_enq`` (the sink has not stamped
    ``t_done`` yet at that point)."""
    sim = Simulator()
    factory = PacketFactory()
    rng = np.random.default_rng(seed)

    if exp_service:
        class ExpDelay(Delay):
            def process(self, packet, now):
                self.processed += 1
                return float(rng.exponential(service_us))

        chain = Chain([ExpDelay("exp", base_cost=service_us)])
    else:
        chain = Chain([Delay("det", base_cost=service_us)])

    waits = []
    sojourns = []

    def on_done(pkt):
        waits.append(pkt.t_deq - pkt.t_enq)
        sojourns.append(sim.now - pkt.t_enq)

    dp = DataPath(
        sim, 0, chain, on_done, rng=rng,
        config=PathConfig(batch_size=1, batch_overhead=0.0,
                          queue_capacity=1_000_000),
    )
    # Remove the flow-cache cost so service is exactly the Delay element.
    dp.flowcache.hit_cost = 0.0
    dp.flowcache.miss_cost = 0.0
    dp.flowcache.upcall_cost = 0.0
    src = PoissonSource(sim, factory, dp.enqueue, rng, rate_pps=rate_pps,
                        duration=duration, n_flows=16)
    src.start()
    sim.run(until=duration + 50_000.0)
    # Discard warmup (first 20%).
    skip = int(0.2 * len(waits))
    return np.array(waits[skip:]), np.array(sojourns[skip:])


class TestSimulatorVsTheory:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_md1_mean_wait_matches(self, rho):
        service = 1.0
        rate = rho * 1e6
        waits, _ = run_single_queue(rate, service)
        predicted = md1_mean_wait(rho, service)
        assert waits.mean() == pytest.approx(predicted, rel=0.12, abs=0.03)

    def test_mm1_mean_wait_matches(self):
        rho, service = 0.6, 1.0
        waits, _ = run_single_queue(rho * 1e6, service, exp_service=True)
        predicted = mm1_mean_wait(rho, service)
        assert waits.mean() == pytest.approx(predicted, rel=0.15)

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mm1_sojourn_quantiles_match(self, rho):
        # M/M/1 sojourn is exponential with mean E[S]/(1-rho); its body
        # and tail quantiles must match the closed form.  p99.9 is left
        # out: with ~10^5 samples it sits on a few hundred points and
        # strays well past this tolerance.
        service = 1.0
        _, sojourns = run_single_queue(rho * 1e6, service, exp_service=True)
        for q in (0.5, 0.9, 0.99):
            predicted = mm1_sojourn_quantile(rho, service, q)
            measured = float(np.quantile(sojourns, q))
            assert measured == pytest.approx(predicted, rel=0.06), q

    def test_deterministic_service_waits_less_than_exponential(self):
        rho, service = 0.7, 1.0
        det = run_single_queue(rho * 1e6, service)[0].mean()
        exp = run_single_queue(rho * 1e6, service,
                               exp_service=True)[0].mean()
        assert det < exp

    def test_jitter_availability_matches_throughput(self, rng):
        """A saturated jittery server delivers availability * mu."""
        from repro.dataplane.vcpu import VCpu

        params = JitterParams(mean_run=500.0, stall_median=50.0, stall_sigma=0.3)
        cpu = VCpu(rng=rng, params=params)
        service = 1.0
        t, n = 0.0, 30_000
        for _ in range(n):
            _, t = cpu.execute(t, service)
        measured_rate = n / t  # packets per µs, saturated
        predicted = stall_availability(params) * (1.0 / service)
        assert measured_rate == pytest.approx(predicted, rel=0.05)
