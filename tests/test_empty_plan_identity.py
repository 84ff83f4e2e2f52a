"""Regression pin: an empty FaultPlan must be *observationally
invisible* — bit-identical SimulationResults — under every overrun
policy, including stochastic runs where any stray RNG draw by the fault
layer would desynchronize the streams.  Besides a fixed four-task set,
the generated 8-task FP-TS scenario of the ``tick-vs-event``
differential pair runs at seeds 2 and 3 with every stochastic path on
(sporadic jitter, execution variation, paper overheads)."""

from __future__ import annotations

import pytest

from repro.experiments.algorithms import build_assignment
from repro.faults.plan import OVERRUN_POLICIES, FaultPlan
from repro.kernel.sim import KernelSim
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.verify import result_to_canonical
from repro.verify.differential import _simulate_for_identity


def _run(faults, overrun_policy):
    taskset = TaskSet(
        [
            Task("a", wcet=2 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=20 * MS),
            Task("c", wcet=5 * MS, period=25 * MS),
            Task("d", wcet=9 * MS, period=50 * MS),
        ]
    ).assign_rate_monotonic()
    assignment = build_assignment(
        "FP-TS", taskset, 2, OverheadModel.zero()
    )
    assert assignment is not None
    return KernelSim(
        assignment,
        OverheadModel.paper_core_i7(2),
        duration=200 * MS,
        record_trace=True,
        sporadic_jitter=MS,
        execution_variation=0.3,
        seed=7,
        faults=faults,
        overrun_policy=overrun_policy,
    ).run()


#: Scenario name -> ``faults -> SimulationResult``.
_SCENARIOS = {
    **{
        policy: lambda faults, policy=policy: _run(faults, policy)
        for policy in OVERRUN_POLICIES
    },
    **{
        f"generated-fpts-seed{seed}": (
            lambda faults, seed=seed: _simulate_for_identity(seed, faults)
        )
        for seed in (2, 3)
    },
}


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_empty_plan_identical_to_no_plan(scenario):
    simulate = _SCENARIOS[scenario]
    without = result_to_canonical(simulate(None))
    with_empty = result_to_canonical(simulate(FaultPlan()))
    assert without == with_empty


def test_policies_share_faultfree_baseline():
    """With no faults to react to, the overrun policy itself must be
    inert: all three policies produce the same schedule."""
    baselines = [
        result_to_canonical(_run(None, policy))
        for policy in sorted(OVERRUN_POLICIES)
    ]
    assert all(b == baselines[0] for b in baselines[1:])
