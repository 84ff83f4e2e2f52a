"""Trace validation: a pluggable registry of schedule-invariant oracles.

Every checker inspects the artifacts a :class:`~repro.kernel.sim.KernelSim`
run produced with ``record_trace=True`` (segment trace, event log, result
counters) and reports :class:`TraceViolation` objects.  Checkers register
themselves under a name via :func:`register_checker`; callers run all of
them (or a subset) through :func:`run_checkers` with a
:class:`CheckContext`.

Structural invariants (any correct semi-partitioned schedule):

* **core-overlap** — segments on one core never overlap;
* **job-parallelism** — a job never executes on two cores at the same
  instant (split subtasks are strictly sequential);
* **budget** — per job, execution on each core never exceeds that core's
  subtask budget plus injected cache-reload delay;
* **placement** — a task only ever executes on cores its assignment gave
  it.

Semantic oracles (the differential-verification layer):

* **preemption-order** — a running job is never lower-priority than a job
  sitting in the same core's ready queue (modulo kernel sections: ready
  sets are reconstructed from the simulator's ``ready``/``dispatch``
  events, which bracket exactly the windows in which the kernel has
  committed a queue state);
* **overhead-ledger** — per core, the ``overhead_ns`` counter equals the
  sum of traced kernel (overhead) segments;
* **budget-conservation** — per task, observed execution time balances
  released work, injected overruns, policy-killed work, and cache-reload
  penalties;
* **handoff-order** — a split job walks its subtask stages strictly in
  order, one core at a time, never skipping or revisiting a stage.

The legacy entry point :func:`validate_trace` keeps its signature and runs
the four structural checks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.model.assignment import Assignment

#: Ready-queue key prefix of a demoted (background) job — mirrors
#: ``repro.kernel.sim._BACKGROUND_KEY``.
_BACKGROUND = 1 << 62

#: Ready-queue key base of the fair (EEVDF-style) class — mirrors
#: ``repro.kernel.sched_class.FAIR_KEY_BASE``.  Every hard-RT key sorts
#: below it, so a running fair job can be judged against ready RT jobs
#: without reconstructing virtual deadlines.
_FAIR_BASE = 1 << 56

#: Scheduling classes that share one system-wide ready queue.  Their
#: placement is a runtime decision (any core), so the per-core oracles
#: either merge cores or skip.
GLOBAL_CLASSES = ("global-edf", "global-rm")


def _effective_class(ctx: "CheckContext") -> str:
    """The scheduling class a run actually used.

    ``sched_class="auto"`` mirrors the simulator's default of deriving
    the class from ``policy`` (``fp`` or ``edf``).
    """
    if ctx.sched_class and ctx.sched_class != "auto":
        return ctx.sched_class
    return ctx.policy


@dataclass(frozen=True)
class TraceViolation:
    kind: str
    detail: str


@dataclass
class CheckContext:
    """Everything a checker may consult.

    Only ``trace`` and ``assignment`` are mandatory; checkers that need
    more (events, counters, the overhead model) skip silently when the
    field is absent, so partial contexts — e.g. the legacy
    :func:`validate_trace` path — run the structural subset.
    """

    trace: List[tuple]
    assignment: Assignment
    events: List[tuple] = field(default_factory=list)
    policy: str = "fp"
    duration: int = 0
    overhead_ns: Optional[List[int]] = None
    busy_ns: Optional[List[int]] = None
    #: The run's :class:`~repro.energy.model.EnergyLedger`; ``None``
    #: makes the energy-ledger checker skip.
    energy: Optional[object] = None
    task_stats: Optional[Dict[str, object]] = None
    misses: Optional[List[object]] = None
    fault_log: Optional[object] = None
    overheads: Optional[object] = None
    #: Per-task nominal job demand, when the caller knows it exactly
    #: (no execution variation).  Enables the execution-time ledger of
    #: the budget-conservation checker.
    expected_work: Optional[Dict[str, int]] = None
    #: IPCP resource sharing changes effective priorities; the
    #: preemption-order oracle does not model ceilings and skips.
    has_resources: bool = False
    #: EDF ready-queue keys are reconstructed from release events, which
    #: only equal the nominal release when no tick deferral or injected
    #: release jitter is active.  Callers clear this flag otherwise.
    edf_keys_reliable: bool = True
    #: Scheduling class the run used (``repro.kernel.sched_class``
    #: registry name).  ``"auto"`` derives it from ``policy``, matching
    #: the simulator's default.
    sched_class: str = "auto"
    #: Names of fair-class (non-hard-deadline) tasks the run coexisted
    #: with.  Their ready windows carry virtual-deadline keys the trace
    #: cannot reconstruct, so priority oracles treat them specially.
    fair_tasks: Optional[Set[str]] = None

    @staticmethod
    def from_result(
        result,
        assignment: Assignment,
        policy: str = "fp",
        overheads=None,
        expected_work: Optional[Dict[str, int]] = None,
        has_resources: bool = False,
        edf_keys_reliable: bool = True,
        sched_class: str = "auto",
        fair_tasks: Optional[Set[str]] = None,
    ) -> "CheckContext":
        """Build a full context from a :class:`SimulationResult`."""
        return CheckContext(
            trace=result.trace,
            assignment=assignment,
            events=result.events,
            policy=policy,
            duration=result.duration,
            overhead_ns=list(result.overhead_ns),
            busy_ns=list(result.busy_ns),
            energy=getattr(result, "energy", None),
            task_stats=result.task_stats,
            misses=result.misses,
            fault_log=result.faults,
            overheads=overheads,
            expected_work=expected_work,
            has_resources=has_resources,
            edf_keys_reliable=edf_keys_reliable,
            sched_class=sched_class,
            fair_tasks=fair_tasks,
        )


CheckerFn = Callable[[CheckContext], List[TraceViolation]]

_CHECKERS: Dict[str, CheckerFn] = {}

#: The original, structure-only checks run by :func:`validate_trace`.
STRUCTURAL_CHECKS = (
    "core-overlap",
    "job-parallelism",
    "placement",
    "budget",
)


def register_checker(name: str) -> Callable[[CheckerFn], CheckerFn]:
    """Register a checker under ``name`` (decorator)."""

    def decorate(fn: CheckerFn) -> CheckerFn:
        if name in _CHECKERS:
            raise ValueError(f"checker {name!r} already registered")
        _CHECKERS[name] = fn
        return fn

    return decorate


def checker_names() -> List[str]:
    """All registered checker names, in registration order."""
    return list(_CHECKERS)


def run_checkers(
    ctx: CheckContext, names: Optional[Sequence[str]] = None
) -> List[TraceViolation]:
    """Run the named checkers (default: all) over ``ctx``."""
    if names is None:
        names = checker_names()
    violations: List[TraceViolation] = []
    for name in names:
        try:
            checker = _CHECKERS[name]
        except KeyError:
            raise KeyError(
                f"unknown checker {name!r}; registered: {checker_names()}"
            ) from None
        violations.extend(checker(ctx))
    return violations


def validate_trace(
    trace: List[tuple], assignment: Assignment
) -> List[TraceViolation]:
    """Structural invariant violations only (legacy API; empty = clean)."""
    ctx = CheckContext(trace=trace, assignment=assignment)
    return run_checkers(ctx, STRUCTURAL_CHECKS)


# ----------------------------------------------------------------------
# Structural checkers
# ----------------------------------------------------------------------

def _exec_segments(trace: List[tuple]):
    for core, start, end, label, kind in trace:
        if kind == "exec":
            yield core, start, end, label


@register_checker("core-overlap")
def _check_core_overlap(ctx: CheckContext) -> List[TraceViolation]:
    violations: List[TraceViolation] = []
    per_core: Dict[int, List[Tuple[int, int, str]]] = {}
    for core, start, end, label, _kind in ctx.trace:
        per_core.setdefault(core, []).append((start, end, label))
    for core, segments in per_core.items():
        segments.sort()
        for (s1, e1, l1), (s2, e2, l2) in zip(segments, segments[1:]):
            if s2 < e1:
                violations.append(
                    TraceViolation(
                        kind="core-overlap",
                        detail=(
                            f"core {core}: {l1}[{s1},{e1}) overlaps "
                            f"{l2}[{s2},{e2})"
                        ),
                    )
                )
    return violations


@register_checker("job-parallelism")
def _check_job_parallelism(ctx: CheckContext) -> List[TraceViolation]:
    violations: List[TraceViolation] = []
    per_job: Dict[str, List[Tuple[int, int, int]]] = {}
    for core, start, end, label in _exec_segments(ctx.trace):
        per_job.setdefault(label, []).append((start, end, core))
    for job, segments in per_job.items():
        segments.sort()
        for (s1, e1, c1), (s2, e2, c2) in zip(segments, segments[1:]):
            if s2 < e1:
                violations.append(
                    TraceViolation(
                        kind="job-parallelism",
                        detail=(
                            f"job {job} runs on core {c1} until {e1} but "
                            f"starts on core {c2} at {s2}"
                        ),
                    )
                )
    return violations


@register_checker("placement")
def _check_placement(ctx: CheckContext) -> List[TraceViolation]:
    if _effective_class(ctx) in GLOBAL_CLASSES:
        # Global classes place jobs on any core at run time; the static
        # assignment only carries task parameters (all entries on core 0).
        return []
    violations: List[TraceViolation] = []
    allowed: Dict[str, Set[int]] = {}
    for entry in ctx.assignment.entries():
        allowed.setdefault(entry.task.name, set()).add(entry.core)
    for core, _start, _end, label in _exec_segments(ctx.trace):
        task_name = label.split("/", 1)[0]
        cores = allowed.get(task_name)
        if cores is not None and core not in cores:
            violations.append(
                TraceViolation(
                    kind="placement",
                    detail=f"task {task_name} executed on core {core}, "
                    f"allowed {sorted(cores)}",
                )
            )
    return violations


@register_checker("budget")
def _check_budget(ctx: CheckContext) -> List[TraceViolation]:
    violations: List[TraceViolation] = []
    budgets: Dict[Tuple[str, int], int] = {}
    restricted = _effective_class(ctx) == "restricted"
    for entry in ctx.assignment.entries():
        if restricted:
            # Restricted migration runs each *whole* job on one of the
            # split task's cores, so any of its cores may legitimately
            # see the full WCET rather than one subtask budget.
            budgets[(entry.task.name, entry.core)] = entry.task.wcet
        else:
            budgets[(entry.task.name, entry.core)] = entry.budget
    # Injected execution overruns legitimately push a job past its
    # budget on the core where the excess runs (run-on and demote keep
    # the job executing); widen that task's allowance by the total
    # injected extra recorded in the fault log.
    overrun_extra: Dict[str, int] = {}
    if ctx.fault_log is not None:
        for event in ctx.fault_log:
            if event.kind == "overrun":
                nominal, actual = _parse_overrun_detail(event.detail)
                overrun_extra[event.task] = (
                    overrun_extra.get(event.task, 0) + (actual - nominal)
                )
    per_job_core: Dict[Tuple[str, int], int] = {}
    for core, start, end, label in _exec_segments(ctx.trace):
        per_job_core[(label, core)] = per_job_core.get((label, core), 0) + (
            end - start
        )
    for (job, core), executed in per_job_core.items():
        task_name = job.split("/", 1)[0]
        budget = budgets.get((task_name, core))
        if budget is None:
            continue  # placement violation already reported
        # Cache-reload penalties execute on the core on top of the budget;
        # bound them by one reload of the full working set per resume.  A
        # generous multiple still catches runaway budget enforcement bugs.
        slack = budget + overrun_extra.get(task_name, 0)
        if executed > budget + slack:
            violations.append(
                TraceViolation(
                    kind="budget",
                    detail=(
                        f"job {job} executed {executed} on core {core}, "
                        f"budget {budget}"
                    ),
                )
            )
    return violations


# ----------------------------------------------------------------------
# Semantic oracles
# ----------------------------------------------------------------------

def _runtime_tables(assignment: Assignment):
    """(task -> core -> local priority, task -> core -> stage index,
    task -> core -> deadline offset, task -> ordered stage cores)."""
    from repro.kernel.runtime import build_runtime_tasks

    priorities: Dict[str, Dict[int, int]] = {}
    stage_index: Dict[str, Dict[int, int]] = {}
    deadline_offset: Dict[str, Dict[int, int]] = {}
    stage_cores: Dict[str, List[int]] = {}
    for rt in build_runtime_tasks(assignment):
        priorities[rt.name] = dict(rt.local_priority)
        cores = [stage.core for stage in rt.stages]
        stage_cores[rt.name] = cores
        if len(set(cores)) != len(cores):
            # A split revisiting a core is not produced by any registered
            # partitioner; the per-core tables would be ambiguous.
            stage_index[rt.name] = {}
            deadline_offset[rt.name] = {}
            continue
        stage_index[rt.name] = {
            stage.core: i for i, stage in enumerate(rt.stages)
        }
        deadline_offset[rt.name] = {
            stage.core: stage.deadline_offset for stage in rt.stages
        }
    return priorities, stage_index, deadline_offset, stage_cores


@dataclass
class _ReadyInterval:
    job: str  # "task/seq"
    start: int  # ready-queue insert time
    end: int  # dispatch time (or horizon)


def _ready_intervals(ctx: CheckContext) -> Dict[int, List[_ReadyInterval]]:
    """Reconstruct per-core ready-queue membership windows.

    A job is *ready* on a core from its ``ready`` event until the next
    ``dispatch`` event of its task on that core.  Events are consumed in
    log order, which is simulation order, so same-instant insert/dispatch
    pairs resolve exactly as the kernel processed them.
    """
    horizon = ctx.duration
    per_core: Dict[int, List[_ReadyInterval]] = {}
    # (task, core) -> FIFO of open intervals awaiting their dispatch.
    open_intervals: Dict[Tuple[str, int], List[_ReadyInterval]] = {}
    for event in ctx.events:
        time, kind, label, core = event
        if kind == "ready":
            task = label.split("/", 1)[0]
            interval = _ReadyInterval(job=label, start=time, end=horizon)
            per_core.setdefault(core, []).append(interval)
            open_intervals.setdefault((task, core), []).append(interval)
        elif kind == "dispatch":
            pending = open_intervals.get((label, core))
            if pending:
                pending.pop(0).end = time
    return per_core


def _job_release_times(ctx: CheckContext) -> Dict[str, int]:
    """Map each job (``task/seq``) to its nominal release time.

    The k-th ``release`` event of a task corresponds to its k-th created
    job; job order follows first ``ready`` appearance.
    """
    release_times: Dict[str, List[int]] = {}
    job_order: Dict[str, List[str]] = {}
    for time, kind, label, _core in ctx.events:
        if kind == "release":
            release_times.setdefault(label, []).append(time)
        elif kind == "ready":
            task = label.split("/", 1)[0]
            jobs = job_order.setdefault(task, [])
            if label not in jobs:
                jobs.append(label)
    out: Dict[str, int] = {}
    for task, jobs in job_order.items():
        times = release_times.get(task, [])
        for job, time in zip(jobs, times):
            out[job] = time
    return out


def _demotion_times(ctx: CheckContext) -> Dict[str, int]:
    """Map demoted jobs (``task/seq``) to their demotion instant."""
    first_ready: Dict[str, List[Tuple[int, str]]] = {}
    for time, kind, label, _core in ctx.events:
        if kind == "ready":
            task = label.split("/", 1)[0]
            jobs = first_ready.setdefault(task, [])
            if not any(job == label for _t, job in jobs):
                jobs.append((time, label))
    demoted: Dict[str, int] = {}
    for time, kind, label, _core in ctx.events:
        if kind != "demote":
            continue
        candidates = [
            (t, job) for t, job in first_ready.get(label, []) if t <= time
        ]
        if candidates:
            demoted[candidates[-1][1]] = time
    return demoted


@register_checker("preemption-order")
def _check_preemption_order(ctx: CheckContext) -> List[TraceViolation]:
    """A running job is never lower-priority than a ready one.

    Reconstructs per-core ready sets from ``ready``/``dispatch`` events
    and flags any execution segment that strictly overlaps a
    higher-priority job's ready window on the same core.  Kernel sections
    need no special casing: the simulator suspends the running job for
    the whole kernel episode, so execution segments never overlap the
    window between a higher-priority arrival and its scheduling pass.

    Per-class priority keys (``sched_class`` in the context):

    * ``fp`` / ``restricted`` — per-core local priority (restricted
      re-plans stages but keeps FP keys on whichever core hosts a job);
    * ``edf`` — ``release + stage deadline offset`` on the stage's core;
    * ``global-edf`` / ``global-rm`` — all cores are merged into one
      virtual core (one shared ready queue, any job may run anywhere)
      and keyed globally; a ready job then only overlaps — and flags —
      running jobs with *larger* keys, which is exactly the global
      invariant "no waiting job outranks any running job".  This
      requires zero kernel overheads: a kernel episode on one core does
      not suspend the others' runners, so non-zero overhead windows
      would produce benign overlaps.
    * fair coexistence — ready fair jobs are skipped (their virtual
      deadlines are not reconstructible from the trace); a *running*
      fair job is keyed at the fair key base, below every hard-RT key,
      so it is still flagged if it runs over a ready RT job.
    """
    if not ctx.events or ctx.has_resources:
        return []
    sched_class = _effective_class(ctx)
    global_mode = sched_class in GLOBAL_CLASSES
    edf = sched_class == "edf"
    if sched_class in ("edf", "global-edf") and not ctx.edf_keys_reliable:
        return []
    if global_mode and ctx.overhead_ns and any(ctx.overhead_ns):
        return []
    fair_tasks = ctx.fair_tasks or frozenset()
    violations: List[TraceViolation] = []
    priorities, _stage_index, deadline_offset, _cores = _runtime_tables(
        ctx.assignment
    )
    if global_mode:
        # One shared ready queue: fold every core's events onto a single
        # virtual core before reconstructing ready windows, and key by
        # the *global* class attributes (task priority / task deadline)
        # taken from the assignment entries.
        from dataclasses import replace as _replace

        ctx = _replace(
            ctx,
            events=[(t, k, label, 0) for t, k, label, _c in ctx.events],
        )
        global_prio: Dict[str, int] = {}
        global_deadline: Dict[str, int] = {}
        for entry in ctx.assignment.entries():
            if entry.task.priority is not None:
                global_prio[entry.task.name] = entry.task.priority
            global_deadline[entry.task.name] = entry.task.deadline
    ready = _ready_intervals(ctx)
    demoted = _demotion_times(ctx)
    releases = (
        _job_release_times(ctx)
        if sched_class in ("edf", "global-edf")
        else {}
    )

    def key_of(job: str, core: int, t: int, running: bool = False):
        task, _, seq = job.partition("/")
        if job in demoted and demoted[job] <= t:
            return (_BACKGROUND, int(seq or 0))
        if task in fair_tasks:
            # Virtual deadlines are not in the trace; a running fair job
            # is conservatively keyed at the class base (below every
            # hard-RT key), ready ones cannot be judged.
            return (_FAIR_BASE, int(seq or 0)) if running else None
        if sched_class == "global-edf":
            release = releases.get(job)
            deadline = global_deadline.get(task)
            if release is None or deadline is None:
                return None
            return (release + deadline, int(seq or 0))
        if sched_class == "global-rm":
            prio = global_prio.get(task)
            if prio is None:
                return None
            return (prio, int(seq or 0))
        if edf:
            offsets = deadline_offset.get(task)
            release = releases.get(job)
            if offsets is None or core not in offsets or release is None:
                return None
            return (release + offsets[core], int(seq or 0))
        table = priorities.get(task)
        if table is None or core not in table:
            return None
        return (table[core], int(seq or 0))

    exec_by_core: Dict[int, List[Tuple[int, int, str]]] = {}
    for core, start, end, label in _exec_segments(ctx.trace):
        exec_by_core.setdefault(0 if global_mode else core, []).append(
            (start, end, label)
        )
    for core, segments in exec_by_core.items():
        waiting = sorted(
            ready.get(core, []), key=lambda iv: (iv.start, iv.end)
        )
        for start, end, running in segments:
            run_key = None
            for interval in waiting:
                if interval.start >= end:
                    break
                overlap_start = max(start, interval.start)
                overlap_end = min(end, interval.end)
                if overlap_end <= overlap_start:
                    continue
                if interval.job == running:
                    continue
                if run_key is None:
                    run_key = key_of(
                        running, core, overlap_start, running=True
                    )
                    if run_key is None:
                        break  # unknown running job: cannot judge
                ready_key = key_of(interval.job, core, overlap_start)
                if ready_key is None:
                    continue
                if ready_key < run_key:
                    violations.append(
                        TraceViolation(
                            kind="preemption-order",
                            detail=(
                                f"core {core}: {running} runs "
                                f"[{overlap_start},{overlap_end}) while "
                                f"higher-priority {interval.job} "
                                f"(key {ready_key} < {run_key}) is ready "
                                f"since {interval.start}"
                            ),
                        )
                    )
    return violations


@register_checker("overhead-ledger")
def _check_overhead_ledger(ctx: CheckContext) -> List[TraceViolation]:
    """Per-core ``overhead_ns`` equals the sum of traced kernel segments.

    Every kernel op with a positive duration is both added to the core's
    ``overhead_ns`` counter and recorded as an ``overhead`` trace
    segment; zero-duration ops contribute to neither.  The two ledgers
    must therefore agree exactly.
    """
    if ctx.overhead_ns is None or not ctx.trace:
        return []
    violations: List[TraceViolation] = []
    traced: Dict[int, int] = {}
    for core, start, end, _label, kind in ctx.trace:
        if kind == "overhead":
            traced[core] = traced.get(core, 0) + (end - start)
    for core, counted in enumerate(ctx.overhead_ns):
        observed = traced.get(core, 0)
        if observed != counted:
            violations.append(
                TraceViolation(
                    kind="overhead-ledger",
                    detail=(
                        f"core {core}: overhead_ns counter {counted} != "
                        f"traced kernel segments {observed}"
                    ),
                )
            )
    return violations


@register_checker("energy-ledger")
def _check_energy_ledger(ctx: CheckContext) -> List[TraceViolation]:
    """The energy ledger balances, replayed from zero.

    Given only the per-core ``busy_ns``/``overhead_ns`` counters and the
    horizon, every ledger field is forced (idle time, then each energy
    as time x recorded power level, then the per-core total) — see
    :func:`repro.energy.model.check_energy_ledger`.  Skips partial
    contexts that carry no ledger or counters.
    """
    energy = ctx.energy
    if energy is None or ctx.busy_ns is None or ctx.overhead_ns is None:
        return []
    from repro.energy.model import check_energy_ledger

    return [
        TraceViolation(kind="energy-ledger", detail=problem)
        for problem in check_energy_ledger(
            energy, ctx.busy_ns, ctx.overhead_ns, ctx.duration
        )
    ]


def _parse_overrun_detail(detail: str) -> Tuple[int, int]:
    """Extract (nominal, actual) from an ``overrun`` fault-log detail."""
    values = {}
    for part in detail.split():
        key, _, value = part.partition("=")
        values[key] = value
    return int(values.get("nominal", 0)), int(values.get("actual", 0))


@register_checker("budget-conservation")
def _check_budget_conservation(ctx: CheckContext) -> List[TraceViolation]:
    """Per-task work/exec-time balance under (possibly faulty) runs.

    Two layers:

    * job-count conservation (always, given ``task_stats``/``misses``):
      released jobs = completed + policy-killed + at most one in-flight,
      and killed counts match the ``aborted``/``lost`` miss records;
    * execution-time ledger (when ``expected_work`` is provided): total
      traced execution per task must lie between the demand its
      *accounted* jobs certainly consumed and the demand all its jobs
      plus injected overruns plus cache-reload penalties could consume.
    """
    if ctx.task_stats is None or ctx.misses is None:
        return []
    violations: List[TraceViolation] = []
    miss_kinds: Dict[Tuple[str, str], int] = {}
    for miss in ctx.misses:
        key = (miss.task, miss.kind)
        miss_kinds[key] = miss_kinds.get(key, 0) + 1
    wss: Dict[str, int] = {}
    for entry in ctx.assignment.entries():
        wss[entry.task.name] = entry.task.wss
    exec_by_task: Dict[str, int] = {}
    for _core, start, end, label in _exec_segments(ctx.trace):
        task = label.split("/", 1)[0]
        exec_by_task[task] = exec_by_task.get(task, 0) + (end - start)
    overrun_extra: Dict[str, int] = {}
    if ctx.fault_log is not None:
        for event in ctx.fault_log:
            if event.kind == "overrun":
                nominal, actual = _parse_overrun_detail(event.detail)
                overrun_extra[event.task] = (
                    overrun_extra.get(event.task, 0) + (actual - nominal)
                )
    for task, stats in ctx.task_stats.items():
        released = stats.jobs_released
        completed = stats.jobs_completed
        killed = stats.jobs_killed
        pending = released - completed - killed
        if pending not in (0, 1):
            violations.append(
                TraceViolation(
                    kind="budget-conservation",
                    detail=(
                        f"task {task}: released={released} != "
                        f"completed={completed} + killed={killed} "
                        f"+ in-flight (found {pending})"
                    ),
                )
            )
            continue
        n_aborted = miss_kinds.get((task, "aborted"), 0)
        n_lost = miss_kinds.get((task, "lost"), 0)
        if n_aborted + n_lost != killed:
            violations.append(
                TraceViolation(
                    kind="budget-conservation",
                    detail=(
                        f"task {task}: jobs_killed={killed} but "
                        f"aborted+lost misses = {n_aborted}+{n_lost}"
                    ),
                )
            )
            continue
        if ctx.expected_work is None or task not in ctx.expected_work:
            continue
        work = ctx.expected_work[task]
        extra = overrun_extra.get(task, 0)
        penalties = 0
        if ctx.overheads is not None:
            cache = ctx.overheads.cache
            penalties = (
                stats.preemptions * cache.preemption_delay(wss.get(task, 0))
                + stats.migrations * cache.migration_delay(wss.get(task, 0))
            )
        # Completed and aborted jobs each consumed at least their nominal
        # demand; lost/in-flight jobs consumed anywhere in [0, actual].
        lower = (completed + n_aborted) * work
        upper = released * work + extra + penalties
        observed = exec_by_task.get(task, 0)
        if not lower <= observed <= upper:
            violations.append(
                TraceViolation(
                    kind="budget-conservation",
                    detail=(
                        f"task {task}: traced execution {observed} outside "
                        f"[{lower}, {upper}] (released={released} "
                        f"completed={completed} aborted={n_aborted} "
                        f"lost={n_lost} W={work} overrun_extra={extra} "
                        f"penalties<={penalties})"
                    ),
                )
            )
    return violations


@register_checker("handoff-order")
def _check_handoff_order(ctx: CheckContext) -> List[TraceViolation]:
    """Split jobs visit their subtask cores strictly in stage order.

    Every job of a split task must begin on stage 0's core and may only
    ever move to the *next* stage's core — never backwards, never
    skipping a stage (each stage has positive budget, so skipping one
    would also skip mandatory execution).
    """
    if not ctx.assignment.split_tasks:
        return []
    if _effective_class(ctx) in ("restricted",) + GLOBAL_CLASSES:
        # Restricted migration and the global classes re-plan each job's
        # stages at release time (whole job on one core); the static
        # subtask walk does not apply.
        return []
    _prios, stage_index, _offsets, stage_cores = _runtime_tables(
        ctx.assignment
    )
    violations: List[TraceViolation] = []
    per_job: Dict[str, List[Tuple[int, int, int]]] = {}
    for core, start, end, label in _exec_segments(ctx.trace):
        task = label.split("/", 1)[0]
        if task in ctx.assignment.split_tasks:
            per_job.setdefault(label, []).append((start, end, core))
    for job, segments in sorted(per_job.items()):
        task = job.split("/", 1)[0]
        stages = stage_index.get(task)
        if not stages:
            continue  # ambiguous core->stage mapping (never produced)
        segments.sort()
        current = 0
        first = True
        for start, _end, core in segments:
            stage = stages.get(core)
            if stage is None:
                continue  # placement checker reports this
            if first:
                if stage != 0:
                    violations.append(
                        TraceViolation(
                            kind="handoff-order",
                            detail=(
                                f"job {job} started on core {core} "
                                f"(stage {stage}), expected stage 0 core "
                                f"{stage_cores[task][0]}"
                            ),
                        )
                    )
                    break
                first = False
                continue
            if stage not in (current, current + 1):
                violations.append(
                    TraceViolation(
                        kind="handoff-order",
                        detail=(
                            f"job {job} jumped from stage {current} to "
                            f"stage {stage} (core {core}) at {start}"
                        ),
                    )
                )
                break
            current = stage
    return violations
