#!/usr/bin/env python
"""Measure the observability subsystem's overhead and record it.

Two numbers matter:

* **disabled overhead** -- the cost the telemetry *guards* add to an
  uninstrumented run (every trace site is ``if tracer.enabled:`` against
  the shared NullTracer).  Measured two ways: a macro A/B of the same
  scenario run repeatedly (noise-prone but honest), and a micro estimate
  (guard cost in ns x guard evaluations per run / run wall time) that is
  stable on shared CI runners.  The acceptance bar is < 5%.
* **enabled overhead** -- the full price of span + metrics collection,
  reported for documentation (no bar; tracing is opt-in).  Measured as
  the median, with quartiles, of interleaved on/off pairs in CPU time
  (``time.process_time``): each pair runs both variants back to back,
  alternating which goes first, so drift in machine speed cancels
  within a pair instead of landing on one variant.

Writes ``benchmarks/results/BENCH_OBS_OVERHEAD.json`` and exits nonzero
if the micro-estimated disabled overhead breaches the bar.

Usage:  python benchmarks/record_obs_overhead.py [--repeats N_PAIRS]
"""

import argparse
import json
import os
import pathlib
import sys
import time
from typing import List, Tuple

import numpy as np

from repro.bench.scenarios import ScenarioConfig, run_scenario
from repro.obs import NullTracer, Telemetry

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
#: Acceptance bar: guards must cost the uninstrumented path < 5%.
MAX_DISABLED_OVERHEAD = 0.05
#: Guard evaluations per *delivered* packet: nic dispatch (1), poller
#: stages (1 per batch, amortized < 1), path completion (1), sink (1),
#: reorder drain (< 1).  4 is a deliberate overestimate.
GUARDS_PER_PACKET = 4


def _scenario() -> ScenarioConfig:
    return ScenarioConfig(policy="adaptive", n_paths=4, load=0.7,
                          duration=30_000.0, warmup=5_000.0,
                          drain=10_000.0, seed=13)


def _cpu(telemetry_factory) -> float:
    """CPU seconds of one run_scenario() variant."""
    t0 = time.process_time()
    run_scenario(_scenario(), telemetry=telemetry_factory())
    return time.process_time() - t0


def _pairs(n: int) -> List[Tuple[float, float]]:
    """``n`` interleaved ``(off, on)`` CPU-time pairs; odd pairs run the
    enabled variant first."""
    out = []
    for i in range(n):
        if i % 2:
            on = _cpu(Telemetry)
            off = _cpu(lambda: None)
        else:
            off = _cpu(lambda: None)
            on = _cpu(Telemetry)
        out.append((off, on))
    return out


def _guard_cost_ns(n: int = 2_000_000) -> float:
    """Cost of one ``if tracer.enabled`` check against the NullTracer."""
    tracer = NullTracer
    t0 = time.perf_counter()
    hits = 0
    for _ in range(n):
        if tracer.enabled:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits == 0
    # Subtract the bare-loop cost so only the guard itself is charged.
    t0 = time.perf_counter()
    for _ in range(n):
        pass
    elapsed -= time.perf_counter() - t0
    return max(0.0, elapsed) * 1e9 / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved on/off pairs (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    pairs = _pairs(args.repeats)
    off_cpu = float(np.median([off for off, _ in pairs]))
    on_cpu = float(np.median([on for _, on in pairs]))
    ratios = [on / off - 1.0 for off, on in pairs]
    enabled, q1, q3 = (float(v) for v in np.percentile(ratios, [50, 25, 75]))
    result = run_scenario(_scenario())
    delivered = result.stats["delivered"]

    guard_ns = _guard_cost_ns()
    guard_evals = delivered * GUARDS_PER_PACKET
    disabled_micro = guard_evals * guard_ns * 1e-9 / off_cpu

    record = {
        "name": "obs-overhead",
        "cpu_count": os.cpu_count(),
        "scenario": {"policy": "adaptive", "n_paths": 4, "load": 0.7,
                     "delivered": delivered},
        "pairs": args.repeats,
        "cpu_off_s": off_cpu,
        "cpu_on_s": on_cpu,
        "enabled_overhead_frac": enabled,
        "enabled_overhead_q1": q1,
        "enabled_overhead_q3": q3,
        "enabled_overhead_pairs": ratios,
        "guard_cost_ns": guard_ns,
        "guard_evals_per_run": guard_evals,
        "disabled_overhead_frac": disabled_micro,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / "BENCH_OBS_OVERHEAD.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\ndisabled (guard) overhead: {disabled_micro:.3%} "
          f"(bar {MAX_DISABLED_OVERHEAD:.0%}); "
          f"enabled overhead: {enabled:.1%} "
          f"(quartiles {q1:.1%}..{q3:.1%} over {args.repeats} pairs)")

    if disabled_micro >= MAX_DISABLED_OVERHEAD:
        print(f"disabled telemetry overhead {disabled_micro:.2%} exceeds "
              f"the {MAX_DISABLED_OVERHEAD:.0%} bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
