"""Differential verification: invariant oracles, metamorphic harness,
cross-implementation checks, and failing-case shrinking.

Entry points:

* :func:`~repro.verify.scenario.check_scenario` — run one replayable
  :class:`~repro.verify.scenario.Scenario` through every registered
  invariant checker;
* :func:`~repro.verify.harness.run_harness` — seeded random trials plus
  metamorphic mutations;
* :func:`~repro.verify.differential.run_differential_suite` — the seven
  independent-implementation agreement checks;
* :func:`~repro.verify.shrink.shrink_scenario` /
  :func:`~repro.verify.shrink.write_repro` — minimize a failing scenario
  and persist it for ``repro verify --replay``.
"""

from repro.verify.differential import (
    DIFFERENTIAL_PAIRS,
    assignment_to_canonical,
    batch_vs_scalar,
    context_vs_oracle,
    cross_class_sanity,
    replay_vs_synthetic,
    result_to_canonical,
    run_differential_suite,
    serial_vs_parallel,
    sim_vs_oracle,
    tick_vs_event,
)
from repro.verify.harness import (
    HarnessReport,
    TrialFailure,
    full_check,
    metamorphic_checks,
    random_scenario,
    run_harness,
    run_trial,
)
from repro.verify.scenario import (
    Scenario,
    ScenarioReport,
    ScenarioTask,
    check_scenario,
    run_scenario,
)
from repro.verify.shrink import (
    DEFAULT_FAILURE_DIR,
    ShrinkResult,
    load_repro,
    shrink_scenario,
    write_repro,
)

__all__ = [
    "DIFFERENTIAL_PAIRS",
    "DEFAULT_FAILURE_DIR",
    "HarnessReport",
    "Scenario",
    "ScenarioReport",
    "ScenarioTask",
    "ShrinkResult",
    "TrialFailure",
    "assignment_to_canonical",
    "batch_vs_scalar",
    "check_scenario",
    "context_vs_oracle",
    "cross_class_sanity",
    "full_check",
    "load_repro",
    "metamorphic_checks",
    "random_scenario",
    "replay_vs_synthetic",
    "result_to_canonical",
    "run_differential_suite",
    "run_harness",
    "run_scenario",
    "run_trial",
    "serial_vs_parallel",
    "shrink_scenario",
    "sim_vs_oracle",
    "tick_vs_event",
    "write_repro",
]
