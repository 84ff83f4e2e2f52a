"""Scheduling classes: pluggable policies behind one dispatch contract.

The kernel simulator (:class:`repro.kernel.sim.KernelSim`) owns the
*mechanism* — event queue, kernel-op episodes, overhead charging, fault
injection, accounting — and delegates every *policy* decision to a
:class:`SchedulingClass`, the way Linux dispatches through
``sched_class`` to ``rt.c`` / ``fair.c`` / ``deadline.c``.  A class
answers five questions:

* **key_of** — where does this job sort in a ready queue?
* **enqueue / pick_next** — how do jobs enter and leave the per-core
  ready queues?
* **release_core** — which core's kernel handles a fresh release?
* **on_budget_exhausted** — what happens when a stage budget runs out?

plus lifecycle hooks (``plan_stages``, ``on_dispatch``, ``on_executed``,
``on_tick``, ``after_sched``) that default to no-ops.  The base-class
defaults reproduce the paper's fixed-priority semi-partitioned scheduler
**bit-identically** (pinned by the frozen pre-plugin matrix
``tests/golden/legacy_matrix.json`` and the golden-trace suite), so a
new class only overrides what it changes.

Key-space layout
----------------

All ready-queue keys are ``(rank, job_seq)`` tuples compared
lexicographically; ``job_seq`` is globally unique, so ties never reach
the job object.  Ranks are partitioned so classes can share one heap:

========================  ==============================================
rank range                meaning
========================  ==============================================
``< FAIR_KEY_BASE``       hard-RT ranks: FP local priorities (small
                          ints) and EDF absolute deadlines (ns since
                          time 0)
``FAIR_KEY_BASE + vd``    fair-class virtual deadlines (EEVDF-style):
                          best-effort jobs run only when no hard-RT
                          job is ready
``BACKGROUND_KEY``        jobs demoted by the ``demote`` overrun
                          policy: after everything, including fair jobs
========================  ==============================================

Available classes (``SCHED_CLASSES``)
-------------------------------------

``fp``
    The paper's scheduler: fixed local priorities per core, split jobs
    migrate on per-stage budget exhaustion.
``edf``
    Local EDF per core with per-stage deadlines (the C=D scheme).
``restricted``
    Restricted-migration semi-partitioning (Dorin et al.): a split
    task's jobs never migrate mid-execution — each whole job runs on
    one of the task's assigned cores, rotating round-robin across them
    at job boundaries.
``global-edf`` / ``global-rm``
    True global scheduling: one shared ready heap, a released job goes
    to an idle core (or preempts the worst-priority runner), and the
    ``after_sched`` waterfall keeps the schedule work-conserving.
    Replaces the old standalone ``GlobalSim`` event loop.
``fair``
    An EEVDF-style best-effort class for background tasks coexisting
    with the hard-RT classes (``KernelSim(fair_tasks=...)``): jobs are
    ranked by virtual deadline above ``FAIR_KEY_BASE``, per-task
    virtual runtimes advance with executed time, and deadline misses
    are suppressed (``hard_deadlines = False``).

Adding a class: subclass :class:`SchedulingClass`, implement
``job_key``, override the hooks whose defaults don't fit, and register
the factory in ``SCHED_CLASSES``.  Every class inherits fault
injection, overhead charging, golden traces, ``sim_*`` metrics, and the
invariant oracles without extra plumbing — see docs/sched_classes.md.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.kernel.runtime import Job, RTTask, Stage

#: Rank offset of fair-class virtual deadlines: above every hard-RT
#: rank (FP priorities are small ints; EDF ranks are absolute deadlines
#: in ns, far below 2**56 for any simulated horizon).
FAIR_KEY_BASE = 1 << 56

#: Rank of a job demoted to background priority by the ``demote``
#: overrun policy: sorts after every class's live jobs.  Mirrored (as
#: ``_BACKGROUND_KEY``) by the simulator and the trace validator.
BACKGROUND_KEY = 1 << 62


class SchedulingClass:
    """Base scheduling class: the paper's fixed-priority dispatch.

    One instance serves one :class:`~repro.kernel.sim.KernelSim` (bound
    via :meth:`bind`); classes may keep per-run state (the restricted
    class's round-robin cursors, the fair class's virtual runtimes), so
    instances are single-use like the simulator itself.
    """

    #: Registry name; subclasses override.
    name = "fp"

    #: Whether this class's jobs have hard deadlines.  When False the
    #: simulator suppresses deadline-miss records for the class's jobs
    #: (overrun drops, late completions, horizon leftovers) — they are
    #: best-effort by definition.
    hard_deadlines = True

    def __init__(self) -> None:
        self.sim = None  # type: ignore[assignment]

    # -- lifecycle ----------------------------------------------------

    def bind(self, sim) -> "SchedulingClass":
        """Attach to a simulator (called once from ``KernelSim.__init__``)."""
        if self.sim is not None:
            raise RuntimeError(
                f"scheduling class {self.name!r} is already bound; "
                "instances are single-use"
            )
        self.sim = sim
        return self

    def plan_stages(
        self, rt: RTTask, seq: int
    ) -> Optional[Sequence[Stage]]:
        """Stage plan for the job ``seq`` of ``rt``.

        ``None`` means "use the task's static stages" (the default).  A
        class that migrates only at job boundaries returns a single
        whole-budget stage on the core of its choice instead.
        """
        return None

    # -- ready-queue protocol -----------------------------------------

    def job_key(self, core, job: Job) -> Tuple[int, int]:
        """Ready-queue rank of a live (non-demoted) job on ``core``."""
        return (job.rt.local_priority[core.index], job.seq)

    def key_of(self, core, job: Job) -> Tuple[int, int]:
        """Ready-queue key; demotion overrides every class's ranking."""
        if job.demoted:
            return (BACKGROUND_KEY, job.seq)
        return self.job_key(core, job)

    def enqueue(self, core, job: Job) -> None:
        """Insert ``job`` into ``core``'s ready queue."""
        core.ready.insert(self.key_of(core, job), job)

    def pick_next(self, core) -> Optional[Job]:
        """Extract the next job to dispatch on ``core`` (None: idle)."""
        if not core.ready:
            return None
        return core.ready.extract_min()[1]

    # -- placement ----------------------------------------------------

    def release_core(self, job: Job, t: int):
        """Core whose kernel processes ``job``'s release."""
        return self.sim.cores[job.current_core]

    # -- policy events ------------------------------------------------

    def on_budget_exhausted(self, core, job: Job, t: int) -> str:
        """Stage budget ran out with work left; only ``"migrate"`` (move
        to the next stage's core) is currently defined.  Classes whose
        jobs never split (single whole-budget stages) never get here."""
        return "migrate"

    def on_dispatch(self, core, job: Job, t: int) -> None:
        """``job`` just became ``core.running``."""

    def on_executed(self, core, job: Job, executed: int) -> None:
        """``executed`` ns of CPU were just accounted to ``job``."""

    def on_tick(self, t: int) -> None:
        """Periodic bookkeeping hook (fired on every release timer)."""

    def after_sched(self, core, t: int) -> None:
        """A scheduling pass on ``core`` just ended (every exit path).

        Per-core classes need nothing here; the global classes chain
        scheduling passes across cores to stay work-conserving.
        """


class FPClass(SchedulingClass):
    """The paper's fixed-priority semi-partitioned class (the default).

    Everything is inherited: the base class *is* the FP policy.
    """


class EDFClass(SchedulingClass):
    """Local EDF with per-stage deadlines (supports C=D splitting)."""

    name = "edf"

    def job_key(self, core, job: Job) -> Tuple[int, int]:
        # Per-stage local deadline: for normal tasks the job's absolute
        # deadline; for split tasks the stage's own deadline (C=D bodies
        # carry deadline == budget, so EDF serves them at once).
        offset = job.stages[job.stage_index].deadline_offset
        return (job.release + offset, job.seq)


class RestrictedMigrationClass(SchedulingClass):
    """Restricted-migration semi-partitioning (Dorin et al.).

    Split tasks migrate **only at job boundaries**: each job runs whole
    (full WCET budget) on one of the task's assigned cores, rotating
    round-robin across the split stages' cores from release to release.
    Mid-job budget exhaustion therefore never occurs, and a "migration"
    is two consecutive jobs of one task dispatched on different cores —
    by construction a subset (in count, per task) of the migrations the
    unrestricted FP class performs on the same assignment, which the
    ``cross-class-sanity`` differential pair checks.
    """

    name = "restricted"

    def __init__(self) -> None:
        super().__init__()
        self._cursor: Dict[str, int] = {}
        self._last_core: Dict[str, int] = {}

    def plan_stages(
        self, rt: RTTask, seq: int
    ) -> Optional[Sequence[Stage]]:
        if not rt.is_split:
            return None
        slot = self._cursor.get(rt.name, 0)
        self._cursor[rt.name] = slot + 1
        core = rt.stages[slot % len(rt.stages)].core
        return (
            Stage(
                core=core,
                budget=rt.total_budget,
                deadline_offset=rt.task.deadline,
            ),
        )

    def on_dispatch(self, core, job: Job, t: int) -> None:
        if job.last_core is not None:
            return  # resumption after preemption: same core, same job
        job.last_core = core.index
        name = job.rt.name
        previous = self._last_core.get(name)
        self._last_core[name] = core.index
        if previous is not None and previous != core.index:
            # The task's context moved cores between jobs: the
            # restricted-migration event this class exists to bound.
            # Counted like any other migration — on the job, on the
            # task, globally, and in the event log — so the per-class
            # counters stay comparable (the restricted <= fp law in
            # tests/test_sched_classes.py compares them directly).
            sim = self.sim
            job.migrate_count += 1
            sim.migrations += 1
            sim.task_stats[name].migrations += 1
            if sim.record_trace:
                sim.events_log.append((t, "migrate", name, core.index))


class _GlobalClass(SchedulingClass):
    """Shared machinery of the global classes: one ready heap, placement
    on idle/worst cores, and the work-conservation waterfall."""

    def bind(self, sim) -> "SchedulingClass":
        super().bind(sim)
        # One system-wide ready queue: alias every core's heap to core
        # 0's (after any metrics instrumentation wrapped it), so the
        # mechanism's per-core heap operations all touch the same
        # structure — pick_next on any core extracts the global minimum.
        shared = sim.cores[0].ready
        for core in sim.cores[1:]:
            core.ready = shared
        return self

    def plan_stages(
        self, rt: RTTask, seq: int
    ) -> Optional[Sequence[Stage]]:
        if not rt.is_split:
            return None
        # Global scheduling ignores split plans: one whole-budget stage
        # (the placement hooks decide where each job actually runs).
        return (
            Stage(
                core=rt.home_core,
                budget=rt.total_budget,
                deadline_offset=rt.task.deadline,
            ),
        )

    def release_core(self, job: Job, t: int):
        sim = self.sim
        idle = None
        worst = None
        worst_key = None
        for core in sim.cores:
            if (
                core.running is None
                and not core.in_kernel
                and not core.op_queue
            ):
                idle = core
                break
            if core.in_kernel or core.running is None:
                continue
            key = self.key_of(core, core.running)
            if worst_key is None or key > worst_key:
                worst, worst_key = core, key
        if idle is not None:
            return idle
        if worst is not None:
            return worst
        return sim.cores[job.current_core]

    def on_dispatch(self, core, job: Job, t: int) -> None:
        last = job.last_core
        if last is not None and last != core.index:
            sim = self.sim
            name = job.rt.name
            job.migrate_count += 1
            sim.task_stats[name].migrations += 1
            sim.migrations += 1
            if job.displaced:
                # The scheduling pass that displaced this job counted a
                # preemption; the job actually resumed on another core,
                # so the displacement *was* the first half of this
                # migration — one event, one counter.  Reclassify.
                job.preempt_count -= 1
                sim.task_stats[name].preemptions -= 1
                sim.preemptions -= 1
        job.last_core = core.index

    def after_sched(self, core, t: int) -> None:
        """Work-conservation waterfall.

        After any scheduling pass, if jobs are still queued, poke a
        fully idle core — or, failing that, the worst-priority runner
        the queue head would preempt.  Each poked pass either extracts
        from the shared heap or strictly lowers some core's running
        key, so the chain terminates; when it stops, no core is idle
        (or running lower-priority work) while a job waits — the
        invariant the ``cross-class-sanity`` pair checks from traces.
        """
        sim = self.sim
        heap = sim.cores[0].ready
        if not heap:
            return
        for other in sim.cores:
            if other is core:
                continue
            if (
                other.running is None
                and not other.in_kernel
                and not other.op_queue
            ):
                sim.request_sched(other, t)
                return
        head_key, _ = heap.find_min()
        worst = None
        worst_key = None
        for other in sim.cores:
            if other is core or other.in_kernel or other.running is None:
                continue
            key = self.key_of(other, other.running)
            if worst_key is None or key > worst_key:
                worst, worst_key = other, key
        if worst is not None and head_key < worst_key:
            sim.request_sched(worst, t)


class GlobalEDFClass(_GlobalClass):
    """Global EDF: one heap ranked by absolute job deadline."""

    name = "global-edf"

    def job_key(self, core, job: Job) -> Tuple[int, int]:
        return (job.release + job.rt.task.deadline, job.seq)


class GlobalRMClass(_GlobalClass):
    """Global fixed-priority (rate-monotonic when priorities are RM)."""

    name = "global-rm"

    def bind(self, sim) -> "SchedulingClass":
        fair_names = getattr(sim, "_fair_names", frozenset())
        for rt in sim.rt_tasks:
            if rt.name in fair_names:
                continue  # fair tasks rank by virtual deadline instead
            if rt.task.priority is None:
                raise ValueError(
                    f"global-rm requires task priorities: {rt.name} "
                    "has none (run a priority-assignment pass first)"
                )
        return super().bind(sim)

    def job_key(self, core, job: Job) -> Tuple[int, int]:
        return (job.rt.task.priority, job.seq)


class FairClass(SchedulingClass):
    """EEVDF-style best-effort class for background tasks.

    Jobs are ranked by *virtual deadline* ``vd = max(task vruntime,
    eligibility floor) + work`` (uniform weights), offset above
    ``FAIR_KEY_BASE`` so any hard-RT job beats any fair job.  A task's
    virtual runtime advances with its executed CPU time, so tasks that
    have run less sort earlier — long-run proportional fairness.  The
    eligibility floor (the minimum virtual runtime across fair tasks,
    refreshed on release ticks) stops a long-idle task from hoarding
    lag and starving the others when it wakes.

    ``hard_deadlines = False``: fair jobs never record deadline misses;
    an unfinished job is simply superseded at its next release.
    """

    name = "fair"
    hard_deadlines = False

    def __init__(self) -> None:
        super().__init__()
        self._vruntime: Dict[str, int] = {}
        self._floor = 0

    def plan_stages(
        self, rt: RTTask, seq: int
    ) -> Optional[Sequence[Stage]]:
        if not rt.is_split:
            return None
        return (
            Stage(
                core=rt.home_core,
                budget=rt.total_budget,
                deadline_offset=rt.task.deadline,
            ),
        )

    def job_key(self, core, job: Job) -> Tuple[int, int]:
        vd = job.class_data
        if vd is None:
            name = job.rt.name
            eligible = max(self._vruntime.get(name, self._floor), self._floor)
            vd = eligible + job.work
            job.class_data = vd
        return (FAIR_KEY_BASE + vd, job.seq)

    def on_executed(self, core, job: Job, executed: int) -> None:
        name = job.rt.name
        self._vruntime[name] = (
            self._vruntime.get(name, self._floor) + executed
        )

    def on_tick(self, t: int) -> None:
        if self._vruntime:
            self._floor = min(self._vruntime.values())


#: Factories by registry name (fresh instance per simulator: classes
#: are stateful and single-use).
SCHED_CLASSES = {
    "fp": FPClass,
    "edf": EDFClass,
    "restricted": RestrictedMigrationClass,
    "global-edf": GlobalEDFClass,
    "global-rm": GlobalRMClass,
    "fair": FairClass,
}


def make_sched_class(spec) -> SchedulingClass:
    """Resolve ``spec`` (a registry name or a ready instance)."""
    if isinstance(spec, SchedulingClass):
        return spec
    factory = SCHED_CLASSES.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown scheduling class {spec!r}; "
            f"use one of {', '.join(sorted(SCHED_CLASSES))}"
        )
    return factory()
