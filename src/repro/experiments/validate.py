"""Simulation-backed validation of analysis verdicts (E6).

The implicit soundness claim behind the paper's methodology: a task set
accepted by the overhead-aware analysis really does meet all deadlines when
executed by the kernel scheduler with those overheads.  This experiment
closes the loop with our simulator:

1. run the overhead-aware FP-TS analysis on random task sets;
2. for every accepted set, simulate the produced assignment under the same
   overhead model (synchronous releases — the critical instant — worst-case
   execution every job);
3. count deadline misses (expected: zero) and validate the trace
   invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.algorithms import ALGORITHMS, build_assignment
from repro.kernel.global_sim import build_global_assignment
from repro.kernel.sim import KernelSim
from repro.model.generator import TaskSetGenerator
from repro.model.time import MS, SEC
from repro.overhead.model import OverheadModel
from repro.trace.validate import validate_trace


@dataclass
class ValidationReport:
    """Outcome of one validation campaign."""

    algorithm: str
    sets_tested: int = 0
    sets_accepted: int = 0
    sets_simulated: int = 0
    deadline_misses: int = 0
    trace_violations: int = 0
    details: List[str] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return self.deadline_misses == 0 and self.trace_violations == 0

    def as_table(self) -> str:
        return (
            f"validation of {self.algorithm}: tested={self.sets_tested} "
            f"accepted={self.sets_accepted} simulated={self.sets_simulated} "
            f"misses={self.deadline_misses} "
            f"trace-violations={self.trace_violations} "
            f"sound={self.sound}"
        )


def validate_by_simulation(
    algorithm: str = "FP-TS",
    n_cores: int = 4,
    n_tasks: int = 8,
    normalized_utilization: float = 0.85,
    sets: int = 10,
    seed: int = 7,
    model: Optional[OverheadModel] = None,
    horizon: Optional[int] = None,
    check_traces: bool = True,
    period_min: int = 10 * MS,
    period_max: int = 100 * MS,
) -> ValidationReport:
    """Run the campaign; see module docstring.

    The default period range is narrowed (10-100 ms) so a 1-2 s horizon
    covers many jobs of every task.
    """
    if model is None:
        model = OverheadModel.paper_core_i7(
            tasks_per_core=max(1, n_tasks // n_cores)
        )
    report = ValidationReport(algorithm=algorithm)
    generator = TaskSetGenerator(
        n_tasks=n_tasks,
        seed=seed,
        period_min=period_min,
        period_max=period_max,
    )
    for index in range(sets):
        taskset = generator.generate(normalized_utilization * n_cores)
        report.sets_tested += 1
        assignment = build_assignment(algorithm, taskset, n_cores, model)
        if assignment is None:
            continue
        report.sets_accepted += 1
        spec = ALGORITHMS[algorithm]
        # Simulate the overhead-aware assignment itself: its entry budgets
        # include the analysis inflation (the head-room reserved for kernel
        # overheads), while every job executes only its *raw* WCET — the
        # exact situation the analysis promises to cover.  The run uses
        # the algorithm's own scheduling class; global algorithms place
        # tasks at runtime, so they simulate the shared-queue assignment.
        if spec.kind == "global":
            assignment = build_global_assignment(taskset, n_cores)
        raw_work = {task.name: task.wcet for task in taskset}
        sim_horizon = horizon
        if sim_horizon is None:
            longest = max(task.period for task in taskset)
            sim_horizon = min(4 * SEC, 10 * longest)
        sim = KernelSim(
            assignment,
            model,
            duration=sim_horizon,
            record_trace=check_traces,
            execution_times=raw_work,
            sched_class=spec.sched_class,
        )
        result = sim.run()
        report.sets_simulated += 1
        if result.miss_count:
            report.deadline_misses += result.miss_count
            report.details.append(
                f"set {index}: {result.miss_count} misses "
                f"(first: {result.misses[0]})"
            )
        if check_traces:
            violations = validate_trace(
                result.trace, assignment, sched_class=spec.sched_class
            )
            if violations:
                report.trace_violations += len(violations)
                report.details.append(
                    f"set {index}: {len(violations)} trace violations "
                    f"(first: {violations[0]})"
                )
    return report
