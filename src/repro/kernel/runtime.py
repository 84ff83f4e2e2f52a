"""Runtime task structures (the simulator's ``task_struct``).

The paper stores "the timing parameters of each task ... in the data
structure ``task_struct``" and, for split tasks, "the time budget in the
split task's ``task_struct``".  :class:`RTTask` is our equivalent: the
static per-task execution plan derived from an
:class:`~repro.model.assignment.Assignment` — the ordered ``(core, budget)``
stages a job walks through, the local priority the task holds on each core
it visits, and the home core whose sleep queue the task returns to.

:class:`Job` is one activation of an :class:`RTTask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.task import Task


@dataclass(frozen=True)
class Stage:
    """One execution stage of a job: ``budget`` ns of work on ``core``.

    ``deadline_offset`` is the stage's local absolute-deadline offset from
    the job's release (= entry jitter + entry relative deadline).  Fixed-
    priority scheduling ignores it; the EDF policy keys the ready queue by
    ``release + deadline_offset`` — which is what C=D splitting relies on
    (a body chunk with deadline equal to its budget is served first).
    """

    core: int
    budget: int
    deadline_offset: int = 0


@dataclass
class RTTask:
    """Static runtime description of one task (normal or split).

    ``wcet_ns`` overrides the expected stage-budget sum when the plan is
    *frequency-dilated*: a core clocked at rational ``f`` stretches its
    stage's budget by ``1/f`` wall nanoseconds, so the dilated sum
    legitimately differs from ``task.wcet`` (which stays in full-speed
    units, as do the task's period and deadline).  ``None`` (the
    default) keeps the strict ``sum(budgets) == task.wcet`` invariant.
    """

    task: Task
    stages: List[Stage]
    local_priority: Dict[int, int]  # core -> local priority of our entry
    wcet_ns: Optional[int] = None  # dilated WCET; None = task.wcet

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"task {self.task.name}: no stages")
        total = sum(stage.budget for stage in self.stages)
        expected = self.wcet_ns if self.wcet_ns is not None else self.task.wcet
        if total != expected:
            raise ValueError(
                f"task {self.task.name}: stage budgets sum to {total}, "
                f"expected {expected}"
            )
        # Cached aggregate: consulted once per released job on the
        # simulator hot path.
        self.total_budget = total

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def is_split(self) -> bool:
        return len(self.stages) > 1

    @property
    def home_core(self) -> int:
        """Core hosting the first subtask — where the task sleeps (paper §2)."""
        return self.stages[0].core

    def priority_on(self, core: int) -> int:
        return self.local_priority[core]


class Job:
    """One activation (job) of a runtime task.

    ``work_left`` is the job's remaining *actual* execution demand; stage
    budgets only cap how much of it may run on each core.  A job whose
    actual execution time is below the sum of the leading budgets simply
    completes inside a body stage without visiting the remaining cores —
    the paper's ``cnt_swth`` case (3): "the current task is a split task,
    and it has finished its execution".  ``penalty_left`` is cache-reload
    delay that occupies the CPU but consumes neither budget nor work.

    ``nominal_work`` is the demand the analysis budgeted for; fault
    injection may hand a job ``work > nominal_work`` (an execution
    overrun), in which case ``work`` may even exceed the summed stage
    budgets — the *final* stage then absorbs the excess (body-stage
    budgets still force migrations on time), and the simulator's overrun
    policy decides what happens at the nominal boundary.  ``demoted``
    marks a job the ``demote`` policy pushed to background priority.

    Jobs are the simulator's per-release allocation, so the class uses
    ``__slots__`` (one is created for every task release of a run).
    """

    __slots__ = (
        "rt",
        "name",
        "release",
        "abs_deadline",
        "seq",
        "work",
        "nominal_work",
        "demoted",
        "stages",
        "cls",
        "last_core",
        "class_data",
        "stage_index",
        "work_left",
        "stage_budget_left",
        "penalty_left",
        "preempt_count",
        "migrate_count",
        "displaced",
        "finish_time",
    )

    def __init__(
        self,
        rt: RTTask,
        release: int,
        abs_deadline: int,
        seq: int,
        work: int,  # actual execution demand (may exceed budgets on overrun)
        nominal_work: Optional[int] = None,  # analysed demand (<= budgets)
        stages: Optional[List[Stage]] = None,  # per-job stage plan override
        cls: object = None,  # owning SchedulingClass (None: sim's default)
    ) -> None:
        total_budget = rt.total_budget
        if nominal_work is None:
            nominal_work = work
        if not 0 < nominal_work <= total_budget:
            raise ValueError(
                f"job of {rt.name}: nominal work {nominal_work} outside "
                f"(0, {total_budget}]"
            )
        if work < nominal_work:
            raise ValueError(
                f"job of {rt.name}: work {work} below nominal "
                f"{nominal_work}"
            )
        self.rt = rt
        # ``task/seq``: the label of every trace row and ready event.
        self.name = f"{rt.task.name}/{seq}"
        self.release = release
        self.abs_deadline = abs_deadline
        self.seq = seq
        self.work = work
        self.nominal_work = nominal_work
        self.demoted = False
        # Per-job stage plan: the task's static stages unless the owning
        # scheduling class re-plans them (restricted migration places each
        # whole job on one of the split task's cores; global classes
        # collapse splits to a single stage).
        self.stages = rt.stages if stages is None else stages
        self.cls = cls
        # Last core this job was dispatched on (None before the first
        # dispatch); global classes count migrations from it.
        self.last_core: Optional[int] = None
        # Scratch slot owned by the scheduling class (e.g. the fair
        # class caches the job's virtual deadline here).
        self.class_data: object = None
        self.stage_index = 0
        self.work_left = work
        # The final stage is work-limited, not budget-limited: overrun
        # demand past the summed budgets runs (or is cut by the overrun
        # policy) on the tail core.  For nominal jobs this is exactly the
        # stage budget.
        if len(self.stages) == 1:
            self.stage_budget_left = max(self.stages[0].budget, work)
        else:
            self.stage_budget_left = self.stages[0].budget
        self.penalty_left = 0
        self.preempt_count = 0
        self.migrate_count = 0
        # Set when a scheduling pass displaces this job from its core
        # (counted there as a preemption); cleared on the next dispatch.
        # The global classes reclassify a displaced job that *resumes on
        # another core* as a migration — one displacement is never both
        # a preemption and a migration.
        self.displaced = False
        self.finish_time: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Job({self.rt.name}/{self.seq}, release={self.release}, "
            f"work_left={self.work_left})"
        )

    @property
    def current_stage(self) -> Stage:
        return self.stages[self.stage_index]

    @property
    def current_core(self) -> int:
        return self.current_stage.core

    @property
    def is_last_stage(self) -> bool:
        return self.stage_index == len(self.stages) - 1

    @property
    def remaining(self) -> int:
        """CPU time until this dispatch's chunk ends (penalty + work/budget)."""
        return self.penalty_left + min(self.stage_budget_left, self.work_left)

    def account(self, executed: int) -> None:
        """Consume ``executed`` ns of CPU: penalty first, then budget+work."""
        penalty = self.penalty_left
        budget_left = self.stage_budget_left
        work_left = self.work_left
        remaining = penalty + (
            budget_left if budget_left < work_left else work_left
        )
        if executed < 0 or executed > remaining:
            raise ValueError(
                f"job {self.name}: accounting {executed} of {remaining}"
            )
        if executed <= penalty:
            self.penalty_left = penalty - executed
            return
        progress = executed - penalty
        self.penalty_left = 0
        self.stage_budget_left = budget_left - progress
        self.work_left = work_left - progress

    @property
    def chunk_done(self) -> bool:
        return self.remaining == 0

    @property
    def work_done(self) -> bool:
        return self.work_left == 0

    @property
    def executed(self) -> int:
        """Work units consumed so far (excludes cache penalties)."""
        return self.work - self.work_left

    @property
    def over_nominal(self) -> bool:
        """True once the job has consumed its analysed (nominal) demand."""
        return self.executed >= self.nominal_work

    def advance_stage(self) -> Stage:
        """Move to the next stage; returns it.  Caller handles migration."""
        if self.is_last_stage:
            raise RuntimeError(f"job {self.name} has no further stage")
        self.stage_index += 1
        stage = self.stages[self.stage_index]
        if self.stage_index == len(self.stages) - 1:
            # Tail stage: absorb any overrun excess (see class docstring).
            self.stage_budget_left = max(stage.budget, self.work_left)
        else:
            self.stage_budget_left = stage.budget
        return stage

    @property
    def completed(self) -> bool:
        return self.finish_time is not None


def build_runtime_tasks(
    assignment: Assignment, metrics=None
) -> List[RTTask]:
    """Derive the runtime task table from an assignment.

    Uses the *raw* entry budgets: the analysis-side inflation (overhead
    accounting) never reaches the simulator, which injects overheads as
    explicit kernel execution instead.

    ``metrics`` (an active :class:`~repro.metrics.registry.
    MetricsRegistry` or ``None``) receives task-table shape gauges —
    how many tasks, how many of them split, and the total stage count —
    the static context every per-primitive measurement is read against
    (the paper reports overheads *as a function of* these).
    """
    by_task: Dict[str, List[Entry]] = {}
    for entry in assignment.entries():
        by_task.setdefault(entry.task.name, []).append(entry)

    runtime: List[RTTask] = []
    for name, entries in by_task.items():
        if len(entries) == 1 and entries[0].kind == EntryKind.NORMAL:
            entry = entries[0]
            runtime.append(
                RTTask(
                    task=entry.task,
                    stages=[
                        Stage(
                            core=entry.core,
                            budget=entry.budget,
                            deadline_offset=entry.deadline,
                        )
                    ],
                    local_priority={entry.core: entry.local_priority},
                )
            )
            continue
        # Split task: order by subtask index.
        entries = sorted(
            entries,
            key=lambda e: e.subtask.index if e.subtask else 0,
        )
        stages = [
            Stage(
                core=e.core,
                budget=e.budget,
                deadline_offset=e.jitter + e.deadline,
            )
            for e in entries
        ]
        priorities = {e.core: e.local_priority for e in entries}
        runtime.append(
            RTTask(
                task=entries[0].task,
                stages=stages,
                local_priority=priorities,
            )
        )
    runtime.sort(key=lambda rt: rt.name)
    if metrics is not None:
        metrics.gauge("sim_task_table_tasks").set(len(runtime))
        metrics.gauge("sim_task_table_split_tasks").set(
            sum(1 for rt in runtime if rt.is_split)
        )
        metrics.gauge("sim_task_table_stages").set(
            sum(len(rt.stages) for rt in runtime)
        )
    return runtime
