"""repro.check -- runtime invariants, scenario fuzzing, differential replay.

Three layers of systematic correctness checking for the simulator:

* :class:`InvariantEngine` (``repro check run`` / ``RunOptions(check=...)``)
  -- cheap assertion hooks armed at the data plane's trust boundaries,
  checking conservation, dedup soundness, FIFO-per-path ordering,
  per-flow delivery order, controller consistency, and clock
  monotonicity; zero-cost no-ops when detached.
* :func:`fuzz_scenarios` (``repro check fuzz``) -- property-based
  generation of random-but-valid :class:`ScenarioConfig`\\ s, run with
  all invariants armed; failures shrink to a minimal repro config.
* :func:`diff_scenario` (``repro check diff``) -- differential replay
  of one scenario across harness variants that must not change results
  (telemetry on/off, faults kwarg-vs-config, jobs=1 vs N, checking
  armed/detached), diffed field by field.

:func:`mutation_selftest` (``repro check selftest``) proves the engine
catches real violations by deliberately breaking the deduplicator.
See docs/CHECKING.md.
"""

from repro.check.invariants import (
    INVARIANT_NAMES,
    InvariantEngine,
    InvariantViolation,
    NullInvariants,
    Violation,
)
from repro.check.spec import CheckSpec

__all__ = [
    "CheckSpec",
    "InvariantEngine",
    "InvariantViolation",
    "INVARIANT_NAMES",
    "NullInvariants",
    "Violation",
    "fuzz_scenarios",
    "diff_scenario",
    "deep_diff",
    "mutation_selftest",
    "check_cluster_conservation",
]


def __getattr__(name):
    # Lazy: fuzz/diff/selftest import the scenario harness, which imports
    # the data-plane modules that themselves import this package.
    if name == "fuzz_scenarios":
        from repro.check.fuzz import fuzz_scenarios

        return fuzz_scenarios
    if name == "diff_scenario":
        from repro.check.diff import diff_scenario

        return diff_scenario
    if name == "deep_diff":
        from repro.check.diff import deep_diff

        return deep_diff
    if name == "mutation_selftest":
        from repro.check.selftest import mutation_selftest

        return mutation_selftest
    if name == "check_cluster_conservation":
        from repro.check.cluster import check_cluster_conservation

        return check_cluster_conservation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
