"""The benchmark's workloads: one scenario each, all open-loop traffic.

Every workload is simulated for :data:`SUB_SEEDS` sub-seeds derived
from the run's ``--seed`` (:func:`sub_seeds`), each in a fresh process.
A single simulation's p99.9 moves by about a quarter from seed to seed
on ``host-steady`` (the adaptive policy's path assignment mixes slowly),
so the simulated metrics are averaged over the sub-seeds.  Why each
workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``scenario`` holds :class:`repro.bench.scenarios.ScenarioConfig`
    fields (the per-host scenario for a cluster).  ``forensics`` runs the
    host with Telemetry + tail forensics attached.  ``cluster`` makes it
    a cluster: ``n_hosts``, ``pattern`` and ``fabric``
    (:class:`repro.net.fabric.FabricConfig` fields).
    """

    scenario: Dict
    forensics: bool = False
    cluster: Optional[Dict] = None


WORKLOADS: Dict[str, Workload] = {
    # The kernel reference scenario (BENCH_KERNEL's): no replication,
    # no drops, no telemetry.
    "host-steady": Workload(
        scenario=dict(policy="adaptive", n_paths=4, traffic="poisson",
                      load=0.7, chain="basic", n_flows=256,
                      duration=60_000.0),
    ),
    # A `repro why` session: replication, queue overflow, reorder
    # timeouts, and Telemetry + forensics on.
    "host-bursty-traced": Workload(
        scenario=dict(policy="redundant2", n_paths=4, traffic="onoff",
                      burstiness=3.0, load=0.4, chain="basic", n_flows=256,
                      interfere_intensity=2.0, interfere_path=0,
                      duration=30_000.0),
        forensics=True,
    ),
    # Fabric-coupled hosts: router, fabric, boundary and epoch stepping.
    "cluster-uniform": Workload(
        scenario=dict(policy="adaptive", n_paths=4, traffic="poisson",
                      load=0.6, chain="basic", n_flows=256,
                      duration=10_000.0, warmup=1_500.0),
        cluster=dict(n_hosts=4, pattern="uniform", fabric=dict(n_spines=4)),
    ),
}

#: Simulations (each with its own seed) one benchmark run covers.
SUB_SEEDS = 5


def sub_seeds(seed: int) -> list:
    """The simulation seeds one benchmark run covers for ``seed``."""
    return [seed * 1000 + i for i in range(SUB_SEEDS)]
