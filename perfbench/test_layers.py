"""Tests of the benchmark's layer map, sampler and metric declarations.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repro"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END, per_layer_units  # noqa: E402
from sampler import (  # noqa: E402
    LAYERS, OTHER, LayerSampler, iter_modules, matching_layers)
from workloads import WORKLOADS  # noqa: E402


def test_every_module_maps_to_exactly_one_layer():
    for module in iter_modules(PACKAGE):
        assert len(matching_layers(module)) == 1, (
            f"repro.{module} maps to {matching_layers(module)}")


def test_every_layer_entry_names_existing_modules():
    modules = list(iter_modules(PACKAGE))
    for layer, names in LAYERS.items():
        for name in names:
            assert any(m == name or m.startswith(name + ".")
                       for m in modules), f"{layer}: no module {name}"


def test_sampler_charges_innermost_repro_frame():
    from repro.sim.engine import Simulator

    sampler = LayerSampler(PACKAGE)
    seen = []
    sim = Simulator()
    # The callback's own frame lives outside src/repro, so the sample
    # belongs to the event loop that called it.
    sim.call_at(1.0, lambda: seen.append(sampler.attribute(sys._getframe())))
    sim.run()
    assert seen == ["sim"]
    assert sampler.attribute(sys._getframe()) == OTHER


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_setup_times_come_from_forked_copies():
    import os

    from child import SETUP_FORKS, _setup_times

    built = []
    times = _setup_times(lambda: built.append(sum(range(10_000))))
    assert len(times) == SETUP_FORKS
    assert all(setup_s > 0 and chunk_s > 0 for setup_s, chunk_s in times)
    # The set-ups ran in the copies, and every copy has been reaped.
    assert built == []
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a forked copy is still running or unreaped")


def test_speed_probe_times_chunks_through_the_run():
    import time

    from speed import PROBE_PERIOD_S, SpeedProbe

    with SpeedProbe() as probe:
        # The timer counts user time only, so the loop must stay out of
        # the kernel between clock reads.
        end = time.thread_time() + 3 * PROBE_PERIOD_S
        while time.thread_time() < end:
            sum(range(10_000))
    assert len(probe.times) >= 2 and all(t > 0 for t in probe.times)


def test_pooled_latency_weights_hosts_by_packet_count():
    from repro.metrics.stats import summarize
    from run import _pooled_latency

    def part(values, retained):
        return [summarize(values).to_dict(), retained]

    # Sub-seed A's host retained 2 of its 4 samples; B's host kept all
    # of its 2.  A's samples must still weigh twice as much as B's.
    first = [{"latency": [part([1.0, 1.0, 1.0, 1.0], [1.0, 1.0])]},
             {"latency": [part([9.0, 9.0], [9.0, 9.0])]}]
    pooled = _pooled_latency(first)
    assert pooled.count == 6 and pooled.max == 9.0
    assert pooled.p50 == 1.0 and pooled.p99 == 9.0
