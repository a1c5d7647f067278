"""The repo benchmark: host time and simulated tail of three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload host-steady [--seed 42]
        [--seconds 30] [--trace 0|1]
    python3 perfbench/run.py --workload all

One run makes an untimed simulation with the invariant checks armed,
then simulates the workload once per sub-seed derived from ``--seed``
(see ``workloads.py``), each in a fresh process, and repeats
sub-seeds while another simulation fits in ``--seconds``.
``--trace 0`` reports the end-to-end metrics, with host times scaled to
a reference speed (``speed.py``); ``--trace 1`` pairs every sub-seed's
untraced simulation with a traced one and reports the per-layer
metrics.  Every run also makes the output checks listed in
``README.md``; any failure makes the run exit 1 with
``"correct": false``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import STAGES  # noqa: E402
from sampler import LAYERS, OTHER  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, sub_seeds  # noqa: E402

#: Wall-clock cap on one invocation per workload, in seconds.
DEADLINE_S = 170.0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "pps": "pkt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p99_us": "us",
    "p999_us": "us",
    "delivery_ratio": "fraction",
}

#: Deterministic per-layer counters (``--trace 1``): name -> unit.
COUNTERS = {
    "sim.events_per_pkt": "1/pkt",
    "sim.pending_mean": "count",
    "core.replicator.useful_ratio": "fraction",
    "core.reorder.held_per_pkt": "1/pkt",
    "core.reorder.timeout_flushes": "count",
    "dataplane.queues.drop_ratio": "fraction",
    "dataplane.nic.drops": "count",
    "dataplane.vcpu.cpu_us_per_pkt": "us/pkt",
    "cluster.router.remote_ratio": "fraction",
    "cluster.engine.epochs": "count",
    "net.fabric.drops": "count",
}


def per_layer_units() -> dict:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    units = {f"{layer}.self_us_per_pkt": "us/pkt" for layer in LAYERS}
    units[f"{OTHER}.share"] = "fraction"
    units.update(COUNTERS)
    units.update({f"stage.{s}.mean_us": "us" for s in STAGES})
    units["trace_overhead"] = "ratio"
    units["trace_samples"] = "count"
    return units


class BenchError(RuntimeError):
    """A simulation process failed or the run overran its deadline."""


def _child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    spec = json.dumps({"workload": workload, "seed": seed, "mode": mode})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"deadline of {DEADLINE_S:.0f} s reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec], cwd=ROOT,
            capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} seed {seed} overran "
                         f"the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _first_per_seed(runs) -> list:
    """One result per sub-seed (simulated outputs repeat exactly)."""
    seen = {}
    for seed, r in runs:
        seen.setdefault(seed, r)
    return list(seen.values())


def _output_errors(runs, traced, check) -> list:
    """Every output check over one benchmark run's simulations."""
    errors = []
    for seed, r in runs + traced:
        errors += [f"seed {seed}: {e}" for e in r["errors"]]
        if r["delivered"] > r["offered"]:
            errors.append(f"seed {seed}: delivered {r['delivered']} > "
                          f"offered {r['offered']}")
    digests = {}
    for seed, r in runs + traced:
        digests.setdefault(seed, set()).add(r["digest"])
    for seed, found in digests.items():
        if len(found) > 1:
            errors.append(f"seed {seed}: result digest differs between "
                          f"repeats or traced/untraced runs: {sorted(found)}")
    seed, r = runs[0]
    if check["violations"]:
        errors.append(f"seed {seed}: check=True run reports "
                      f"{check['violations']} invariant violations; "
                      f"{check.get('message', '')}")
    if check["core_digest"] != r["core_digest"]:
        errors.append(f"seed {seed}: the check=True run (telemetry off) "
                      f"and the timed run disagree on the result payload")
    return errors


def _pps(runs) -> float:
    """Median delivered packets per CPU-second of the run phase."""
    return _median(r["delivered"] / r["run_s"] for _, r in runs)


def _scaled(seconds: float, chunk_s: float) -> float:
    """CPU seconds scaled to the reference speed (see ``speed.py``)."""
    return seconds * REFERENCE_S / chunk_s


def _setup_s(runs, scale: bool) -> float:
    """Median set-up time over every forked copy of the run."""
    return _median(_scaled(t, c) if scale else t
                   for _, r in runs for t, c in r["setup_s"])


def _pooled_latency(first):
    """Latency summary of every packet the run's sub-seeds delivered.

    Each host's summary and retained order statistics are merged the way
    ``run_cluster`` merges its hosts.  A sub-seed's p99 ranges from about
    550 to 1200 µs on ``host-bursty-traced``, so a median over five
    sub-seeds jumps between runs; the pooled tail does not.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cluster.result import merge_summaries

    parts = [part for r in first for part in r["latency"]]
    return merge_summaries([summary for summary, _ in parts],
                           [samples for _, samples in parts])


def _end_to_end(runs, latency) -> dict:
    first = _first_per_seed(runs)
    return {
        "pps": _median(r["delivered"] / _scaled(r["run_s"], r["chunk_s"])
                       for _, r in runs),
        "setup_s": _setup_s(runs, scale=True),
        "peak_rss_mb": _median(r["rss_mb"] for _, r in runs),
        "p99_us": latency.p99,
        "p999_us": latency.p999,
        "delivery_ratio": (sum(r["delivered"] for r in first)
                           / sum(r["offered"] for r in first)),
    }


def _per_layer(runs, traced) -> dict:
    t = [r for _, r in traced]
    delivered = sum(r["delivered"] for r in t)
    offered = sum(r["offered"] for r in t)
    samples = {k: sum(r["samples"][k] for r in t) for k in t[0]["samples"]}
    us_per_sample = sum(r["run_s"] for r in t) * 1e6 / sum(samples.values())
    out = {f"{layer}.self_us_per_pkt":
           samples[layer] * us_per_sample / delivered for layer in LAYERS}
    out[f"{OTHER}.share"] = samples[OTHER] / sum(samples.values())
    c = {k: sum(r["counters"].get(k, 0) for r in t)
         for k in ("copies", "queue_drops", "reorder_held", "cpu_time_us",
                   "envelopes")}
    out.update({
        "sim.events_per_pkt": sum(r["processed"] for r in t) / delivered,
        "sim.pending_mean": _median(r["pending_mean"] for r in t),
        "core.replicator.useful_ratio": delivered / c["copies"],
        "core.reorder.held_per_pkt": c["reorder_held"] / delivered,
        "core.reorder.timeout_flushes": _median(
            r["counters"]["timeout_flushes"] for r in t),
        "dataplane.queues.drop_ratio": c["queue_drops"] / c["copies"],
        "dataplane.nic.drops": _median(r["counters"]["nic_drops"] for r in t),
        "dataplane.vcpu.cpu_us_per_pkt": c["cpu_time_us"] / delivered,
        "cluster.router.remote_ratio": c["envelopes"] / offered,
        "cluster.engine.epochs": _median(r.get("epochs", 0) for r in t),
        "net.fabric.drops": _median(
            r["counters"].get("fabric_drops", 0) for r in t),
    })
    for s in STAGES:
        out[f"stage.{s}.mean_us"] = _median(
            r["stages"].get(s, 0.0) for r in t)
    out["trace_overhead"] = _pps(runs) / _pps(traced)
    out["trace_samples"] = _median(sum(r["samples"].values()) for r in t)
    return out


def _simulate(name: str, seeds: list, seconds: float, trace: bool):
    """Every simulation of one run: ``(check, timed, traced)``."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    check = _child(name, seeds[0], "check", deadline)
    start = time.monotonic()
    runs, traced = [], []
    # The check run repeats the first sub-seed through ``repro.run``: its
    # payload less the checker's report must equal the timed one.  With
    # forensics on it cannot repeat the forensics report, since it runs
    # with telemetry off, so the first sub-seed is timed twice.
    minimum = len(seeds) + (1 if wl.forensics else 0)
    for i, s in enumerate(itertools.cycle(seeds)):
        elapsed = time.monotonic() - start
        if i >= minimum and elapsed * (i + 1) / i > seconds:
            break
        runs.append((s, _child(name, s, "timed", deadline)))
        if trace and i < len(seeds):
            traced.append((s, _child(name, s, "traced", deadline)))
    return check, runs, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return ``(result_json, report_lines)``."""
    seeds = sub_seeds(seed)
    check, runs, traced = _simulate(name, seeds, seconds, trace)
    errors = _output_errors(runs, traced, check)
    first = _first_per_seed(runs)
    latency = _pooled_latency(first)
    metrics = (_per_layer(runs, traced) if trace
               else _end_to_end(runs, latency))
    units = per_layer_units() if trace else END_TO_END

    offered = sum(r["offered"] for r in first)
    delivered = sum(r["delivered"] for r in first)
    lines = [f"# {name}  seed={seed}  sub-seeds={seeds}  "
             f"simulations={len(runs) + len(traced)}"]
    lines += [f"{k:<36} {metrics[k]:>14.6g} {units[k]}" for k in units]
    lines += [
        f"{'pps_unscaled':<36} {_pps(runs):>14.6g} pkt/s (CPU time as "
        "measured, not gated)",
        f"{'setup_s_unscaled':<36} {_setup_s(runs, scale=False):>14.6g} s "
        "(not gated)",
        f"{'p50_us':<36} {latency.p50:>14.6g} us (not gated: spreads too "
        "wide)",
        f"{'loss_ratio':<36} {(offered - delivered) / offered:>14.6g} "
        "fraction (not gated: 0 on lossless workloads)",
        f"{'delivered':<36} {delivered:>14d} pkt (latency sample count)",
    ]
    lines += [f"digest[{s}] {r['digest']}" for s, r in zip(seeds, first)]
    lines += [f"CHECK FAILED: {e}" for e in errors]
    attempted = sum(r["offered"] for _, r in runs + traced)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark on one workload (or all).")
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (default 42); a perf claim "
                             "must also hold on the held-out seed 7")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run; it always covers "
                             "every sub-seed once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
