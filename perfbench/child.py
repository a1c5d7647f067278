"""Run one benchmark simulation in this (fresh) process; print one JSON line.

Usage::

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "mode": ...}'

Modes:

* ``timed``  -- build the workload through the public entry points
  (``build_runtime`` then ``sim.run``, or ``run_cluster`` at
  ``workers=1``) and time the run with ``time.process_time`` while a
  :class:`speed.SpeedProbe` times the machine's speed.  Set-up is timed
  in :data:`SETUP_FORKS` forked copies of the process, each with a
  speed chunk before and after it;
* ``traced`` -- the same without the set-up copies, and with
  :class:`sampler.LayerSampler` in place of the speed probe,
  attributing the run's CPU samples to layers;
* ``check``  -- one untimed run with the invariant checks armed and
  telemetry off: ``repro.run`` with ``RunOptions(check=True)``, or
  ``run_cluster(check=True)``, which adds cross-shard conservation.

``run.py`` starts this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = SRC / "repro"
sys.path.insert(0, str(HERE))

from sampler import LayerSampler  # noqa: E402
from speed import SpeedProbe, chunk_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Telemetry stages whose mean sim-time the traced run reports.
STAGES = ("nic_ring", "vswitch_queue", "sched_stall", "nf_service",
          "reorder_buffer")


#: Set-ups timed in forked copies of each timed simulation's process.
#: Set-up takes tens of milliseconds, so one time per process is at the
#: mercy of the machine's speed of the moment.
SETUP_FORKS = 8


def _setup_times(setup) -> list:
    """``[setup_s, chunk_s]`` for ``setup()`` in each of :data:`SETUP_FORKS`
    forked copies of this process.

    Each copy is forked before this process builds anything, so it
    starts from the state a fresh process has at the start of set-up:
    ``repro`` imported, nothing built and no capacity calibrated.
    ``chunk_s`` is the mean of the speed chunks timed just before and
    after set-up in the copy.  The collector is frozen across the forks
    so that a collection in a copy does not touch, and so copy, every
    page of the inherited heap.
    """
    gc.freeze()
    times = []
    for _ in range(SETUP_FORKS):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                before = chunk_seconds()
                t0 = time.process_time()
                setup()
                setup_s = time.process_time() - t0
                chunk_s = (before + chunk_seconds()) / 2
                os.write(write_fd, json.dumps([setup_s, chunk_s]).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            reply = pipe.read()
        os.waitpid(pid, 0)
        if not reply:
            raise RuntimeError("set-up failed in a forked copy")
        times.append(json.loads(reply))
    gc.unfreeze()
    return times


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: Payload keys the observers add: forensics, the invariant engine and
#: the cluster conservation check.
OBSERVERS = ("forensics_report", "check_report", "conservation")


def _core_digest(payload) -> str:
    """Digest of the payload without the observers' reports."""
    def strip(d):
        return {k: v for k, v in d.items() if k not in OBSERVERS}

    core = strip(payload)
    if "hosts" in core:
        core["hosts"] = [strip(h) for h in core["hosts"]]
        core["cluster"] = strip(core["cluster"])
    return _digest(core)


def _counters(host_payloads) -> dict:
    """Deterministic data-plane counters summed over host payloads."""
    stats = [h["stats"] for h in host_payloads]
    return {
        "copies": sum(s["ingress"] + s["replicas"] for s in stats),
        "queue_drops": sum(sum(s["queue_drops"]) for s in stats),
        "nic_drops": sum(s["nic_drops"] for s in stats),
        "reorder_held": sum(s.get("reorder", {}).get("held", 0)
                            for s in stats),
        "timeout_flushes": sum(s.get("reorder", {}).get("timeout_flushes", 0)
                               for s in stats),
        "cpu_time_us": sum(s["cpu_time"] for s in stats),
    }


def _run_times(cpu_s: float, meter) -> dict:
    """``run_s``: CPU seconds of the run phase, less the speed probe's
    chunks; ``chunk_s``: the chunks' mean time (``None`` when traced)."""
    if isinstance(meter, SpeedProbe):
        return {"run_s": cpu_s - sum(meter.times),
                "chunk_s": sum(meter.times) / len(meter.times)}
    return {"run_s": cpu_s, "chunk_s": None}


class _EpochCounter:
    """Wraps ``Simulator.run_epoch``, which ``run_cluster`` calls once per
    host and epoch, to count calls and find the shards' simulators."""

    def __init__(self, simulator_cls) -> None:
        self.calls = 0
        self.sims = {}
        original = simulator_cls.run_epoch

        def run_epoch(sim, end):
            self.calls += 1
            self.sims.setdefault(id(sim), sim)
            return original(sim, end)

        simulator_cls.run_epoch = run_epoch

    def pending_mean(self) -> float:
        sims = self.sims.values()
        return sum(s.pending_count for s in sims) / len(sims) if sims else 0.0


def _run_host(wl, seed: int, mode: str) -> dict:
    import repro
    from repro.bench.scenarios import ScenarioConfig, build_runtime
    from repro.cluster.result import retained_samples

    config = dict(wl.scenario, seed=seed)
    if mode == "check":
        result = repro.run(ScenarioConfig.from_dict(config),
                           repro.RunOptions(check=True))
        payload = result.to_dict()
        return {"violations": payload["check_report"]["violation_count"],
                "core_digest": _core_digest(payload)}

    def setup():
        cfg = ScenarioConfig.from_dict(config)
        rt = build_runtime(cfg, forensics=True if wl.forensics else None)
        rt.start()
        return cfg, rt

    setups = _setup_times(setup) if mode == "timed" else []
    cfg, rt = setup()
    meter = (LayerSampler(PACKAGE, probe=lambda: rt.sim.pending_count)
             if mode == "traced" else SpeedProbe())
    t1 = time.process_time()
    with meter:
        rt.sim.run(until=rt.horizon)
        result = rt.finalize()
    t2 = time.process_time()

    payload = result.to_dict()
    out = {
        "setup_s": setups,
        **_run_times(t2 - t1, meter),
        "offered": payload["offered"],
        "delivered": payload["delivered"],
        "processed": rt.sim.processed_count,
        "latency": [[payload["summary"],
                     retained_samples(result.host.sink.recorder.values())]],
        "counters": _counters([payload]),
        "errors": [],
        "digest": _digest(payload),
        "core_digest": _core_digest(payload),
    }
    if mode == "traced":
        out["samples"] = meter.counts
        out["pending_mean"] = meter.probe_mean
        out["stages"] = {}
        if result.telemetry is not None:
            from repro.obs.report import stage_breakdown

            breakdown = stage_breakdown(result.telemetry.tracer,
                                        warmup=cfg.warmup)
            out["stages"] = {s: breakdown[s]["mean"] for s in STAGES}
    return out


def _cluster_errors(payload) -> list:
    """Cross-shard conservation and per-host routing accounting."""
    errors = []
    c = payload["cluster"]
    if c["envelopes_sent"] != c["envelopes_received"] + c["fabric_dropped"]:
        errors.append(f"envelopes_sent {c['envelopes_sent']} != received "
                      f"{c['envelopes_received']} + fabric_dropped "
                      f"{c['fabric_dropped']}")
    for h in payload["hosts"]:
        r = h["router"]
        if r["generated"] != r["local"] + sum(r["sent"].values()):
            errors.append(f"host {h['host_id']}: generated {r['generated']} "
                          f"!= local + sent")
        arrived = r["local"] + sum(r["received"].values())
        if h["delivered"] > arrived:
            errors.append(f"host {h['host_id']}: delivered {h['delivered']} "
                          f"> local + received {arrived}")
    return errors


def _run_cluster(wl, seed: int, mode: str) -> dict:
    from repro.bench.scenarios import ScenarioConfig
    from repro.cluster import ClusterConfig, run_cluster
    from repro.net.fabric import FabricConfig
    from repro.sim.engine import Simulator

    def setup():
        template = ScenarioConfig.from_dict(wl.scenario)
        cfg = ClusterConfig.uniform_hosts(
            wl.cluster["n_hosts"], template,
            FabricConfig(**wl.cluster["fabric"]),
            pattern=wl.cluster["pattern"], seed=seed)
        cfg.validate()
        # The hosts share the template's chain, so this fills the
        # capacity calibration every host's build_runtime would
        # otherwise pay inside run_cluster: the part of set-up that can
        # be timed from outside.
        template.path_capacity_pps()
        return cfg

    if mode == "check":
        from repro.check import InvariantViolation

        try:
            payload = run_cluster(setup(), workers=1, check=True).to_dict()
        except InvariantViolation as exc:
            return {"violations": 1, "message": str(exc), "core_digest": ""}
        return {"violations": sum(h["check_report"]["violation_count"]
                                  for h in payload["hosts"]),
                "core_digest": _core_digest(payload)}
    setups = _setup_times(setup) if mode == "timed" else []
    cfg = setup()
    if mode == "traced":
        epochs = _EpochCounter(Simulator)
        meter = LayerSampler(PACKAGE, probe=epochs.pending_mean)
    else:
        meter = SpeedProbe()
    t1 = time.process_time()
    with meter:
        result = run_cluster(cfg, workers=1)
    t2 = time.process_time()

    payload = result.to_dict()
    c = payload["cluster"]
    out = {
        "setup_s": setups,
        **_run_times(t2 - t1, meter),
        "offered": c["offered"],
        "delivered": c["delivered"],
        "latency": [[h["summary"], h["latency_samples"]]
                    for h in payload["hosts"]],
        "counters": dict(_counters(payload["hosts"]),
                         envelopes=c["envelopes_sent"],
                         fabric_drops=c["fabric_dropped"]),
        "errors": _cluster_errors(payload),
        "digest": _digest(payload),
        "core_digest": _core_digest(payload),
    }
    if mode == "traced":
        out["processed"] = sum(s.processed_count
                               for s in epochs.sims.values())
        out["epochs"] = epochs.calls // wl.cluster["n_hosts"]
        out["samples"] = meter.counts
        out["pending_mean"] = meter.probe_mean
        out["stages"] = {}
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != PACKAGE:
        print(f"imported repro from {repro.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[spec["workload"]]
    run = _run_host if wl.cluster is None else _run_cluster
    out = run(wl, spec["seed"], spec["mode"])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
