"""Layer map and the out-of-program stack sampler behind ``--trace 1``.

The sampler is a ``SIGPROF`` handler driven by
``signal.setitimer(ITIMER_PROF)``: every :data:`PERIOD_S` seconds of
process CPU time the interpreter calls :meth:`LayerSampler._sample` at the next
bytecode boundary with the frame it interrupted.  The handler walks out
to the innermost frame whose code lives under ``src/repro/`` and charges
the sample to that module's layer.  Time spent inside C calls (heapq,
numpy draws) therefore lands on the Python frame that made the call.
Samples with no ``src/repro/`` frame on the stack, or in a module the
map does not name, are charged to ``other``.

The sampler reads no random stream and schedules no events, so a traced
run's result payload is byte-identical to an untraced one -- the
benchmark checks this on every traced run.
"""

from __future__ import annotations

import pathlib
import signal
from typing import Callable, Dict, Iterator, Optional

#: Layer -> the modules it owns, as dotted names relative to ``repro``.
#: A name covers that module, or every module of that package (a
#: package's own ``__init__`` is ``<package>.__init__``).  Each module
#: of ``src/repro/`` must match exactly one name; ``test_layers.py``
#: enforces it.  The first 21 layers are the data path and the cluster
#: mode; the last six are subsystems the timed runs leave switched off.
LAYERS: Dict[str, tuple] = {
    "sim": ("sim",),
    "net.traffic": ("net.__init__", "net.traffic", "net.packet", "net.flow",
                    "net.workloads", "net.rpc"),
    "dataplane.nic": ("dataplane.nic",),
    "dataplane.poller": ("dataplane.poller",),
    "dataplane.vswitch": ("dataplane.vswitch",),
    "core.policies": ("core.policies", "core.detector", "core.flowlet"),
    "core.mpdp": ("core.__init__", "core.mpdp"),
    "core.replicator": ("core.replicator",),
    "core.reorder": ("core.reorder",),
    "core.controller": ("core.controller",),
    "dataplane.queues": ("dataplane.__init__", "dataplane.queues",
                         "dataplane.path", "dataplane.scheduler"),
    "dataplane.vcpu": ("dataplane.vcpu", "dataplane.interference"),
    "elements": ("elements",),
    "dataplane.sink": ("dataplane.sink",),
    "metrics": ("metrics",),
    "obs": ("obs",),
    "cluster.engine": ("cluster.__init__", "cluster.engine", "cluster.config",
                       "cluster.result"),
    "cluster.router": ("cluster.router",),
    "net.fabric": ("net.fabric", "net.topology"),
    "dataplane.boundary": ("dataplane.boundary",),
    "bench.scenarios": ("bench",),
    "api": ("__init__", "__main__", "cli", "options", "schemas", "units"),
    "analysis": ("analysis",),
    "check": ("check",),
    "faults": ("faults",),
    "slo": ("slo",),
    "sweep": ("sweep",),
}

#: Name of the bucket for samples no layer claims.
OTHER = "other"

#: Requested sampling period, in seconds of process CPU time.  Linux
#: checks CPU-time timers once per scheduler tick, so it rounds this up
#: to the tick (4 ms at HZ=250).
PERIOD_S = 0.001


def matching_layers(module: str) -> list:
    """Every layer whose map entry covers ``module`` (a dotted name)."""
    return [layer for layer, names in LAYERS.items()
            if any(module == n or module.startswith(n + ".") for n in names)]


def module_name(path: pathlib.Path, package_root: pathlib.Path) -> str:
    """Dotted module name of ``path`` relative to ``src/repro``."""
    rel = path.relative_to(package_root).with_suffix("")
    return ".".join(rel.parts)


def iter_modules(package_root: pathlib.Path) -> Iterator[str]:
    """Dotted names of every module file under ``package_root``."""
    for path in sorted(package_root.rglob("*.py")):
        yield module_name(path, package_root)


class LayerSampler:
    """Count CPU-time samples per layer while active (a context manager).

    ``probe``, when given, is called in every sample and its value is
    averaged into :attr:`probe_mean` -- the benchmark uses it to sample
    the simulators' pending-schedule depth.
    """

    def __init__(self, package_root: pathlib.Path,
                 probe: Optional[Callable[[], float]] = None) -> None:
        self.prefix = str(package_root) + "/"
        self.package_root = package_root
        self.probe = probe
        self.counts: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts[OTHER] = 0
        self._probe_sum = 0.0
        self._layer_of_code: Dict[object, Optional[str]] = {}
        self._previous = None

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def probe_mean(self) -> float:
        return self._probe_sum / self.total if self.total else 0.0

    def layer_of(self, code) -> Optional[str]:
        """Layer of a code object; ``None`` outside ``src/repro/``."""
        try:
            return self._layer_of_code[code]
        except KeyError:
            pass
        filename = code.co_filename
        layer = None
        if filename.startswith(self.prefix):
            module = module_name(pathlib.Path(filename), self.package_root)
            found = matching_layers(module)
            layer = found[0] if len(found) == 1 else OTHER
        self._layer_of_code[code] = layer
        return layer

    def attribute(self, frame) -> str:
        """Layer of the innermost ``src/repro/`` frame on ``frame``'s stack."""
        while frame is not None:
            layer = self.layer_of(frame.f_code)
            if layer is not None:
                return layer
            frame = frame.f_back
        return OTHER

    def _sample(self, signum, frame) -> None:
        self.counts[self.attribute(frame)] += 1
        if self.probe is not None:
            self._probe_sum += self.probe()

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
