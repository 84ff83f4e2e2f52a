"""The kernel scheduler simulator.

Reproduces, as a discrete-event simulation, the scheduler the paper patched
into Linux 2.6.32:

* per-core binomial-heap ready queues and red-black-tree sleep queues;
* preemptive fixed-local-priority dispatch;
* split tasks that migrate when their per-core budget is exhausted and
  return to the sleep queue of the core hosting their first subtask;
* the Figure-1 overhead anatomy: kernel work (``rls``, ``sch``, ``cnt1``,
  ``cnt2``) executes *on the core*, non-preemptibly, stealing time from the
  application exactly as the paper measures it;
* cache-related delay charged when a preempted job resumes locally
  (``preemption_delay``) or a migrated job resumes remotely
  (``migration_delay``).

Overhead charging follows the paper's decomposition:

* release path (Figure 1, b..e): ``rls`` + ``sch`` (with re-queue on
  preemption) + ``cnt1``;
* completion path (f..i): ``sch`` + ``cnt2`` (sleep-queue insert; the next
  task's context load is part of ``cnt2``, so the subsequent dispatch is
  free);
* budget exhaustion: ``sch`` + ``cnt2`` (remote ready-queue insert; local
  redispatch free), then the destination core runs a charged scheduling
  pass when the migrated subtask arrives.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.energy.model import (
    CoreEnergy,
    EnergyLedger,
    PowerModel,
    normalize_frequencies,
    round_half_up,
    scale_ns,
)
from repro.faults.injector import (
    MIGRATION_DROP,
    MIGRATION_LATE,
    FaultInjector,
)
from repro.faults.log import FaultLog
from repro.faults.plan import OVERRUN_POLICIES, FaultPlan
from repro.kernel.events import (
    _OP_PRIORITY,
    _RELEASE_PRIORITY,
    Event,
    EventQueue,
)
from repro.kernel.runtime import Job, RTTask, Stage, build_runtime_tasks
from repro.kernel.sched_class import SchedulingClass, make_sched_class
from repro.metrics.registry import MetricsRegistry
from repro.metrics.registry import active as _metrics_active
from repro.model.assignment import Assignment
from repro.model.resources import ResourceModel
from repro.model.task import Task
from repro.overhead.model import OverheadModel
from repro.structures.binomial_heap import BinomialHeap
from repro.structures.instrumented import (
    InstrumentedHeap,
    InstrumentedTree,
    _StatsCollection,
)
from repro.structures.rbtree import RedBlackTree

#: Ready-queue key prefix of a job demoted to background priority: sorts
#: after every fixed-priority level, every EDF deadline, and every fair
#: virtual deadline (see :mod:`repro.kernel.sched_class` for the full
#: key-space layout).  The same-instant event priorities live in
#: :mod:`repro.kernel.events`.
_BACKGROUND_KEY = 1 << 62

#: Profiling bucket per op kind (hoisted out of the per-op hot path).
_PROFILE_BUCKET = {
    "release": "release",
    "migrate_in": "release",
    "sched": "sch",
    "cnt_in": "cnt_swth",
    "finish": "cnt_swth",
    "migrate_out": "cnt_swth",
}


@dataclass(frozen=True)
class DeadlineMiss:
    """One detected deadline violation."""

    task: str
    job_seq: int
    release: int
    abs_deadline: int
    detected_at: int
    kind: str  # "late" (finished after deadline), "overrun" (release while
    # previous job unfinished), "incomplete" (unfinished at horizon),
    # "aborted" (killed at nominal C by the abort-job overrun policy),
    # "lost" (job context destroyed by an injected migration drop)


@dataclass
class TaskStats:
    """Per-task aggregate response-time statistics.

    ``responses`` holds every completed job's response time when the
    simulation was created with ``record_responses=True`` (for percentile
    reporting); otherwise it stays empty and only the aggregates are kept.
    """

    jobs_released: int = 0
    jobs_completed: int = 0
    #: Jobs terminated by the fault layer (abort-job policy or a dropped
    #: migration); never counted in ``jobs_completed``.
    jobs_killed: int = 0
    max_response: int = 0
    total_response: int = 0
    preemptions: int = 0
    migrations: int = 0
    responses: List[int] = field(default_factory=list)

    @property
    def mean_response(self) -> float:
        if self.jobs_completed == 0:
            return 0.0
        return self.total_response / self.jobs_completed

    def response_percentile(self, q: float) -> int:
        """q-th percentile of recorded responses (requires recording)."""
        if not self.responses:
            raise ValueError(
                "no recorded responses; run KernelSim with "
                "record_responses=True"
            )
        ordered = sorted(self.responses)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1)))
        return ordered[index]


@dataclass
class SimulationResult:
    """Everything a run of :class:`KernelSim` produced."""

    duration: int
    misses: List[DeadlineMiss]
    task_stats: Dict[str, TaskStats]
    busy_ns: List[int]
    overhead_ns: List[int]
    cache_delay_ns: int
    context_switches: int
    preemptions: int
    migrations: int
    releases: int
    trace: List[tuple]  # (core, start, end, label, kind)
    events: List[tuple]  # (time, type, task, core)
    #: Every injected fault and overrun-policy action, in simulation
    #: order; empty when the run had no fault plan.
    faults: FaultLog = field(default_factory=FaultLog)
    #: Per-core busy/overhead/idle energy under the run's frequency
    #: vector and power model.
    energy: EnergyLedger = field(default_factory=EnergyLedger.empty)

    @property
    def miss_count(self) -> int:
        return len(self.misses)

    @property
    def no_misses(self) -> bool:
        return not self.misses

    @property
    def n_cores(self) -> int:
        return len(self.busy_ns)

    def utilization_of(self, core: int) -> float:
        return self.busy_ns[core] / self.duration if self.duration else 0.0

    def overhead_ratio(self, core: int) -> float:
        return self.overhead_ns[core] / self.duration if self.duration else 0.0

    @property
    def total_overhead_ratio(self) -> float:
        if not self.duration:
            return 0.0
        return sum(self.overhead_ns) / (self.duration * self.n_cores)


class _Op:
    """A unit of kernel execution on one core."""

    __slots__ = ("kind", "duration", "effect", "label")

    def __init__(
        self,
        kind: str,
        duration: int,
        effect: Callable[[int], None],
        label: str,
    ) -> None:
        self.kind = kind
        self.duration = duration
        self.effect = effect
        self.label = label


class _Core:
    """Mutable per-core scheduler state."""

    __slots__ = (
        "index",
        "ready",
        "sleep",
        "running",
        "dispatched_at",
        "completion_event",
        "in_kernel",
        "op_queue",
        "needs_sched",
        "free_dispatch",
        "busy_ns",
        "overhead_ns",
        "busy_pj",
        "overhead_pj",
        "seq",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.ready = BinomialHeap()
        self.sleep = RedBlackTree()
        self.running: Optional[Job] = None
        self.dispatched_at = 0
        self.completion_event: Optional[Event] = None
        self.in_kernel = False
        self.op_queue: Deque[_Op] = deque()
        self.needs_sched = False
        self.free_dispatch = False
        self.busy_ns = 0
        self.overhead_ns = 0
        self.busy_pj = 0
        self.overhead_pj = 0
        self.seq = 0

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class KernelSim:
    """Simulate an assignment for a fixed horizon under an overhead model.

    Parameters
    ----------
    assignment:
        Output of a (semi-)partitioning algorithm.  Entry budgets are taken
        as the *actual* execution demand (worst-case jobs).
    overheads:
        The :class:`~repro.overhead.model.OverheadModel` to inject.
    duration:
        Simulation horizon in nanoseconds.
    record_trace:
        Keep per-segment execution/overhead trace (memory-heavy; enable for
        Gantt rendering and the Figure-1 bench).
    release_offsets:
        Optional per-task first-release offsets (default: synchronous at 0,
        the critical instant).
    execution_times:
        Optional per-task *actual* execution demand per job.  Defaults to
        the full budget (worst-case jobs).  Use this to simulate an
        overhead-aware assignment (whose entry budgets include analysis
        inflation) with the raw workload: a job that finishes early inside
        a body stage completes there without migrating further.
    policy:
        Per-core scheduling policy: ``"fp"`` (fixed local priorities, the
        paper's scheduler) or ``"edf"`` (earliest local deadline first;
        split tasks run with per-stage deadlines, supporting the C=D
        splitting scheme).
    sporadic_jitter:
        If positive, releases are *sporadic*: each inter-arrival is the
        period plus a uniform random delay in ``[0, sporadic_jitter]`` ns.
        The period stays the minimum inter-arrival, so a schedulable
        periodic set remains schedulable.
    execution_variation:
        If positive (< 1), each job's actual demand is its base demand
        scaled by a uniform factor in ``[1 - execution_variation, 1]`` —
        average-case workloads under a worst-case analysis.
    seed:
        Seed for the sporadic/variation randomness (deterministic runs).
    tick_ns:
        If positive, the kernel is *tick-driven*: release processing is
        deferred to the next multiple of ``tick_ns`` (the paper's Linux
    	used high-resolution timers = tick 0; classic kernels used 1-4 ms
        ticks).  Deadlines stay anchored at the nominal arrival, so the
        tick delay eats into each job's slack — analyse with
        ``core_schedulable(..., tick_ns=...)``.
    resources:
        Optional :class:`~repro.model.resources.ResourceModel`: jobs lock
        resources at their declared work offsets and run at the resource's
        ceiling priority while holding it (immediate priority ceiling
        protocol).  FP policy only; split tasks must not use resources.
        Analyse with
        :func:`repro.analysis.blocking.core_schedulable_with_resources`.
    profile:
        If True, time every kernel-op effect with ``perf_counter_ns`` and
        aggregate per-bucket (count, total ns) into :attr:`profile` — the
        data :func:`repro.overhead.measure.measure_scheduler_functions`
        consumes.  Off by default: the two clock reads per op are pure
        overhead on the simulation hot path.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`: injects execution
        overruns, release jitter, overhead spikes, and dropped/late
        migrations, all drawn from a dedicated RNG seeded from ``seed``
        and the plan's own seed.  Every injected fault is recorded in
        :attr:`SimulationResult.faults`.  ``None`` (or an empty plan)
        leaves every existing counter and ratio bit-identical to a run
        without the fault layer.
    overrun_policy:
        What happens when a job has consumed its *nominal* demand but an
        injected overrun left it with work remaining: ``"run-on"`` (the
        default: keep running at its priority — pre-fault behaviour),
        ``"abort-job"`` (budget enforcement: kill the job at nominal C
        and count an ``aborted`` miss), or ``"demote"`` (finish the
        excess at background priority, below all other tasks).
    metrics:
        Optional :class:`~repro.metrics.registry.MetricsRegistry`.  When
        given (and enabled), the run records the paper's overhead
        anatomy into it: per-primitive kernel-op counts and simulated-
        time costs (``sim_kernel_ops_total{op=...}`` and friends), queue
        operations timed individually through the instrumented ready/
        sleep structures and keyed by the per-core task count N
        (``wall_queue_op_ns{queue=...,n=...}`` — the paper's δ/θ-vs-N
        measurement), plus wall-clock self-profiling of the simulator's
        own handlers.  Observation never perturbs the simulation: the
        :class:`SimulationResult` is bit-identical with ``metrics=None``,
        a disabled registry, or an enabled one (pinned by
        ``tests/test_profile_cli.py`` and the golden-trace suite).
        ``None`` (the default) keeps the hot path at a single attribute
        check per kernel op.  A registry shared across several runs
        aggregates them; per-run queue-op counts stay per-run because
        the sim resets its instrumented-structure counters at the start
        of every :meth:`run`.
    sched_class:
        The scheduling policy plugin: a registry name from
        :data:`repro.kernel.sched_class.SCHED_CLASSES` (``"fp"``,
        ``"edf"``, ``"restricted"``, ``"global-edf"``, ``"global-rm"``,
        ``"fair"``) or a ready :class:`~repro.kernel.sched_class.
        SchedulingClass` instance.  ``None`` (the default) derives the
        class from ``policy``, preserving the pre-plugin behaviour
        bit-identically (pinned by ``tests/golden/legacy_matrix.json``).
        Class instances are stateful and single-use, like the
        simulator itself.
    fair_tasks:
        Optional best-effort background tasks, scheduled by the EEVDF-
        style fair class *alongside* the hard-RT tasks of the
        assignment: each is pinned round-robin to a core, released
        periodically, ranked above every hard-RT priority (it runs only
        in idle time), and never records deadline misses.  Names must
        not collide with assignment tasks.
    frequencies:
        Optional per-core clock: ``None`` (all cores at 1, the exact
        pre-DVFS behaviour), a scalar, or one entry per core; each value
        becomes a single rational scale (:func:`repro.energy.model.
        as_fraction`).  A core at frequency ``f`` dilates its stage
        budgets, actual demands, kernel-overhead constants, and cache
        reload costs by ``1/f`` wall nanoseconds, each via one exact
        multiply rounded half-up.  Periods, deadlines, and release
        offsets are wall-clock and stay unscaled.  At ``f == 1`` the
        per-core model *is* the shared model (``is``-level identity),
        which is what the ``freq1-vs-unscaled`` differential pins.
    power:
        Optional :class:`~repro.energy.model.PowerModel` for the energy
        ledger (``P(f) = P_s + C · f^alpha``); defaults to the Nehalem-
        class constants.  Busy and kernel-overhead time accrue at the
        core's active level, idle time at the static floor; the ledger
        lands in :attr:`SimulationResult.energy`.
    """

    def __init__(
        self,
        assignment: Assignment,
        overheads: OverheadModel,
        duration: int,
        record_trace: bool = False,
        release_offsets: Optional[Dict[str, int]] = None,
        execution_times: Optional[Dict[str, int]] = None,
        policy: str = "fp",
        sporadic_jitter: int = 0,
        execution_variation: float = 0.0,
        seed: int = 0,
        record_responses: bool = False,
        tick_ns: int = 0,
        resources: Optional["ResourceModel"] = None,
        profile: bool = False,
        faults: Optional[FaultPlan] = None,
        overrun_policy: str = "run-on",
        metrics: Optional[MetricsRegistry] = None,
        sched_class: Optional[object] = None,
        fair_tasks: Optional[List[Task]] = None,
        frequencies: Optional[object] = None,
        power: Optional[PowerModel] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.assignment = assignment
        self.model = overheads
        self.duration = duration
        self.record_trace = record_trace
        self.queue = EventQueue()
        self.cores = [_Core(i) for i in range(assignment.n_cores)]
        self.frequencies = normalize_frequencies(
            frequencies, assignment.n_cores
        )
        self._unit_freq = all(f == 1 for f in self.frequencies)
        self.power = power if power is not None else PowerModel()
        # Per-core overhead models.  ``at_frequency(1)`` returns the
        # model itself, so at unit frequency every entry *is* the shared
        # model — the structural identity the freq1-vs-unscaled
        # differential relies on.
        self._models = [
            overheads.at_frequency(f) for f in self.frequencies
        ]
        self._active_mw = [
            self.power.active_mw(f) for f in self.frequencies
        ]
        self._idle_mw = self.power.idle_mw
        self._metrics = _metrics_active(metrics)
        self.rt_tasks = build_runtime_tasks(assignment, metrics=self._metrics)
        self.offsets = release_offsets or {}
        self.execution_times = execution_times or {}
        if policy not in ("fp", "edf"):
            raise ValueError(f"unknown policy {policy!r}; use 'fp' or 'edf'")
        self.policy = policy
        self._edf = policy == "edf"
        # Resolve the scheduling-class plugin (binding happens below,
        # after the metrics layer may have wrapped the ready queues).
        self.sched_class: SchedulingClass = make_sched_class(
            policy if sched_class is None else sched_class
        )
        self._fair_class: Optional[SchedulingClass] = None
        self._fair_names: frozenset = frozenset()
        if fair_tasks:
            self._fair_class = (
                self.sched_class
                if self.sched_class.name == "fair"
                else make_sched_class("fair")
            )
            taken = {rt.name for rt in self.rt_tasks}
            fair_rts: List[RTTask] = []
            for i, task in enumerate(fair_tasks):
                if task.name in taken:
                    raise ValueError(
                        f"fair task {task.name!r} collides with an "
                        "assigned task"
                    )
                taken.add(task.name)
                pin = i % assignment.n_cores
                fair_rts.append(
                    RTTask(
                        task=task,
                        stages=[
                            Stage(
                                core=pin,
                                budget=task.wcet,
                                deadline_offset=task.deadline,
                            )
                        ],
                        local_priority={pin: 0},
                    )
                )
            self._fair_names = frozenset(rt.name for rt in fair_rts)
            self.rt_tasks = self.rt_tasks + fair_rts
        if not self._unit_freq:
            # Dilate the runtime plan to the per-core clocks: stage
            # budgets stretch by 1/f on their core, and explicit actual
            # demands keep their *fraction* of the (now dilated) budget.
            exec_times = dict(self.execution_times)
            dilated: List[RTTask] = []
            for rt in self.rt_tasks:
                scaled = self._dilate_rt(rt)
                dilated.append(scaled)
                requested = exec_times.get(rt.name)
                if requested is not None:
                    exec_times[rt.name] = max(
                        1,
                        round_half_up(
                            Fraction(
                                requested * scaled.total_budget,
                                rt.total_budget,
                            )
                        ),
                    )
            self.rt_tasks = dilated
            self.execution_times = exec_times
        self._class_of_task: Dict[str, SchedulingClass] = {
            rt.name: (
                self._fair_class
                if rt.name in self._fair_names
                else self.sched_class
            )
            for rt in self.rt_tasks
        }
        self._classes: List[SchedulingClass] = [self.sched_class]
        if (
            self._fair_class is not None
            and self._fair_class is not self.sched_class
        ):
            self._classes.append(self._fair_class)
        if sporadic_jitter < 0:
            raise ValueError("sporadic_jitter must be non-negative")
        if not 0.0 <= execution_variation < 1.0:
            raise ValueError("execution_variation must be in [0, 1)")
        self.sporadic_jitter = sporadic_jitter
        self.execution_variation = execution_variation
        self.record_responses = record_responses
        if tick_ns < 0:
            raise ValueError("tick_ns must be non-negative")
        self.tick_ns = tick_ns
        self.resources = resources
        self._core_ceilings: List[Dict[str, int]] = [
            {} for _ in range(assignment.n_cores)
        ]
        if resources is not None and not resources.is_empty:
            if policy != "fp" or self.sched_class.name != "fp":
                raise ValueError(
                    "resource sharing is only supported under the FP policy"
                )
            if not self._unit_freq:
                raise ValueError(
                    "per-core frequencies cannot be combined with "
                    "resource sharing (critical-section offsets are in "
                    "full-speed work units)"
                )
            if self._fair_class is not None:
                raise ValueError(
                    "resource sharing cannot be combined with fair_tasks"
                )
            resources.validate_against(
                [rt.task for rt in self.rt_tasks]
            )
            for rt in self.rt_tasks:
                if rt.is_split and resources.sections_of(rt.name):
                    raise ValueError(
                        f"split task {rt.name} declares critical sections; "
                        "unsupported"
                    )
            # Per-core ceilings over local priorities.
            for core_assignment in assignment.cores:
                ceilings = self._core_ceilings[core_assignment.core]
                for entry in core_assignment.entries:
                    for section in resources.sections_of(entry.task.name):
                        current = ceilings.get(section.resource)
                        if current is None or entry.local_priority < current:
                            ceilings[section.resource] = entry.local_priority
        if overrun_policy not in OVERRUN_POLICIES:
            raise ValueError(
                f"unknown overrun_policy {overrun_policy!r}; use one of "
                f"{', '.join(OVERRUN_POLICIES)}"
            )
        self.overrun_policy = overrun_policy
        self._enforce_overrun = overrun_policy != "run-on"
        # An empty plan behaves exactly like no plan: no injector object,
        # no extra RNG stream, no per-op branches beyond one None check.
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, seed)
            if faults is not None and not faults.is_empty
            else None
        )
        import random as _random

        self._rng = _random.Random(seed)
        # Results accumulators
        self.misses: List[DeadlineMiss] = []
        self.task_stats: Dict[str, TaskStats] = {
            rt.name: TaskStats() for rt in self.rt_tasks
        }
        self.trace: List[tuple] = []
        self.events_log: List[tuple] = []
        self.cache_delay_ns = 0
        self.energy = EnergyLedger.empty()  # settled in _finalize
        self.context_switches = 0
        self.preemptions = 0
        self.migrations = 0
        self.releases = 0
        # Wall-clock self-profiling runs for an explicit profile=True and
        # whenever a metrics registry is attached (the registry flush
        # consumes the same buckets).
        self._profile_enabled = profile or self._metrics is not None
        self.profile: Dict[str, Tuple[int, int]] = {}
        # Per-op-kind accumulators (plain dicts on the hot path; flushed
        # into the registry once, after the run).
        self._op_counts: Dict[str, int] = {}
        self._op_sim_ns: Dict[str, int] = {}
        #: (queue, N) -> shared op-stats collection; the instrumented
        #: structures of every core with per-core task count N feed it.
        self._queue_stats: Dict[Tuple[str, int], _StatsCollection] = {}
        if self._metrics is not None:
            n_by_core = {
                core_assignment.core: len(core_assignment.entries)
                for core_assignment in assignment.cores
            }
            for core in self.cores:
                n = n_by_core.get(core.index, 0)
                ready_stats = self._queue_stats.setdefault(
                    ("ready", n), _StatsCollection()
                )
                sleep_stats = self._queue_stats.setdefault(
                    ("sleep", n), _StatsCollection()
                )
                core.ready = InstrumentedHeap(
                    stats=ready_stats,
                    histogram=self._metrics.histogram(
                        "wall_queue_op_ns", queue="ready", n=n
                    ),
                )
                core.sleep = InstrumentedTree(
                    stats=sleep_stats,
                    histogram=self._metrics.histogram(
                        "wall_queue_op_ns", queue="sleep", n=n
                    ),
                )
        # Bind the plugin(s) last: the global classes alias the per-core
        # ready heaps to one shared queue, which must happen *after* the
        # metrics layer above may have wrapped them.
        for cls in self._classes:
            cls.bind(self)
        self._current_jobs: Dict[str, Optional[Job]] = {
            rt.name: None for rt in self.rt_tasks
        }
        self._sleep_nodes: Dict[str, object] = {}
        self._job_seq = 0
        self._finished = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return the results."""
        if self._finished:
            raise RuntimeError("KernelSim instances are single-use")
        if self._metrics is not None:
            # Per-simulation counters: shared stats collections must not
            # leak an earlier run's totals into this run's op counts.
            for stats in self._queue_stats.values():
                stats.reset()
        for rt in self.rt_tasks:
            offset = self.offsets.get(rt.name, 0)
            self._schedule_release(rt, offset)
        self.queue.run_until(self.duration)
        self._finalize()
        if self._metrics is not None:
            self._flush_metrics()
        self._finished = True
        return SimulationResult(
            duration=self.duration,
            misses=self.misses,
            task_stats=self.task_stats,
            busy_ns=[core.busy_ns for core in self.cores],
            overhead_ns=[core.overhead_ns for core in self.cores],
            cache_delay_ns=self.cache_delay_ns,
            context_switches=self.context_switches,
            preemptions=self.preemptions,
            migrations=self.migrations,
            releases=self.releases,
            trace=self.trace,
            events=self.events_log,
            faults=(
                self._injector.log if self._injector is not None
                else FaultLog()
            ),
            energy=self.energy,
        )

    def _dilate_rt(self, rt: RTTask) -> RTTask:
        """The runtime task as seen under the per-core clocks: each
        stage's budget stretched by ``1/f`` of its core (at least 1 ns),
        the dilated sum recorded as ``wcet_ns``.  Periods, deadlines,
        and priorities are wall-clock quantities and stay put."""
        stages = [
            Stage(
                core=stage.core,
                budget=max(
                    1, scale_ns(stage.budget, self.frequencies[stage.core])
                ),
                deadline_offset=stage.deadline_offset,
            )
            for stage in rt.stages
        ]
        return RTTask(
            task=rt.task,
            stages=stages,
            local_priority=rt.local_priority,
            wcet_ns=sum(stage.budget for stage in stages),
        )

    # ------------------------------------------------------------------
    # Release handling (timer path)
    # ------------------------------------------------------------------

    def _work_of(self, rt: RTTask, t: int) -> Tuple[int, int]:
        """(actual, nominal) execution demand of the job released at ``t``.

        ``actual`` exceeds ``nominal`` only when the fault layer injects
        an execution overrun.
        """
        total_budget = rt.total_budget
        requested = self.execution_times.get(rt.task.name, total_budget)
        if self.execution_variation > 0.0:
            factor = self._rng.uniform(1.0 - self.execution_variation, 1.0)
            requested = int(round(requested * factor))
        nominal = max(1, min(requested, total_budget))
        if self._injector is not None:
            actual = self._injector.draw_work(
                rt.task.name, nominal, t, rt.home_core
            )
        else:
            actual = nominal
        return actual, nominal

    def _schedule_release(self, rt: RTTask, nominal: int) -> None:
        """Arm the release timer: at the nominal arrival — possibly
        pushed back by injected release jitter — or, in a tick-driven
        kernel, at the next tick boundary after that."""
        fire = nominal
        jitter = 0
        if self._injector is not None:
            jitter = self._injector.draw_release_jitter(rt.name)
            fire += jitter
        if self.tick_ns > 0:
            fire = -(-fire // self.tick_ns) * self.tick_ns
        if fire < self.duration:
            if jitter > 0:
                self._injector.record_jitter(
                    nominal, rt.name, rt.home_core, jitter
                )
            self.queue.schedule_fast(
                fire,
                lambda t, rt=rt, nominal=nominal: self._on_release(
                    rt, t, nominal
                ),
                priority=_RELEASE_PRIORITY,
            )

    def _on_release(self, rt: RTTask, t: int, nominal: Optional[int] = None) -> None:
        if nominal is None:
            nominal = t
        for cls in self._classes:
            cls.on_tick(t)
        # Schedule the next release first (periodic, or sporadic with a
        # random extra delay beyond the minimum inter-arrival).
        next_release = nominal + rt.task.period
        if self.sporadic_jitter > 0:
            next_release += self._rng.randint(0, self.sporadic_jitter)
        self._schedule_release(rt, next_release)
        previous = self._current_jobs[rt.name]
        if previous is not None and not previous.completed:
            # Overrun: previous job still active at the next release.
            # Best-effort classes don't record the miss — the unfinished
            # job simply loses its successor's activation.
            if previous.cls.hard_deadlines:
                self.misses.append(
                    DeadlineMiss(
                        task=rt.name,
                        job_seq=previous.seq,
                        release=previous.release,
                        abs_deadline=previous.abs_deadline,
                        detected_at=t,
                        kind="overrun",
                    )
                )
                self._log_event(t, "overrun", rt.name, rt.home_core)
            return  # the new release is skipped (job dropped)
        self._job_seq += 1
        work, nominal_work = self._work_of(rt, t)
        task_class = self._class_of_task[rt.name]
        job = Job(
            rt=rt,
            release=nominal,
            abs_deadline=nominal + rt.task.deadline,
            seq=self._job_seq,
            work=work,
            nominal_work=nominal_work,
            stages=task_class.plan_stages(rt, self._job_seq),
            cls=task_class,
        )
        name = rt.task.name
        self._current_jobs[name] = job
        self.releases += 1
        self.task_stats[name].jobs_released += 1
        if self.record_trace:
            self._log_event(t, "release", name, rt.home_core)
        # Sleep-queue bookkeeping: the timer removes the task from the home
        # core's sleep queue before release() inserts it into the ready queue.
        home = self.cores[rt.home_core]
        node = self._sleep_nodes.pop(name, None)
        if node is not None:
            home.sleep.remove(node)
        core = task_class.release_core(job, t)
        self._kernel_enqueue(
            core,
            _Op(
                kind="release",
                duration=self._models[core.index].rls,
                effect=lambda t2, job=job, core=core: self._do_release(
                    core, job, t2
                ),
                label=f"rls:{name}" if self.record_trace else "rls",
            ),
            t,
        )

    def _do_release(self, core: _Core, job: Job, t: int) -> None:
        self._ready_insert(core, job, t)
        core.needs_sched = True

    # ------------------------------------------------------------------
    # Kernel-execution machinery
    # ------------------------------------------------------------------

    def _kernel_enqueue(self, core: _Core, op: _Op, t: int) -> None:
        core.op_queue.append(op)
        if not core.in_kernel:
            self._suspend_running(core, t)
            core.in_kernel = True
            self._start_next_op(core, t)

    def _suspend_running(self, core: _Core, t: int) -> None:
        """Stop the running job's progress (kernel takes the CPU)."""
        job = core.running
        if job is None or core.completion_event is None:
            return
        executed = t - core.dispatched_at
        core.completion_event.cancel()
        core.completion_event = None
        if executed > 0:
            job.account(executed)
            job.cls.on_executed(core, job, executed)
            core.busy_ns += executed
            core.busy_pj += executed * self._active_mw[core.index]
            if self.record_trace:
                self._record(
                    core.index, core.dispatched_at, t, job.name, "exec"
                )
        if job.chunk_done:
            # The chunk finished exactly at this instant: process the end of
            # chunk before whatever interrupted us.
            core.running = None
            self._enqueue_chunk_end(core, job, t, front=True)

    def _start_next_op(self, core: _Core, t: int) -> None:
        op = core.op_queue.popleft()
        if op.kind == "sched":
            op.duration = self._sched_duration(core)
        duration = op.duration
        if duration > 0 and self._injector is not None:
            duration = self._injector.spike(op.kind, duration, t, core.index)
        if self._metrics is not None:
            # Charged (post-spike) cost: what the core actually lost.
            self._op_counts[op.kind] = self._op_counts.get(op.kind, 0) + 1
            self._op_sim_ns[op.kind] = (
                self._op_sim_ns.get(op.kind, 0) + duration
            )
        end = t + duration
        if duration > 0:
            core.overhead_ns += duration
            core.overhead_pj += duration * self._active_mw[core.index]
            if self.record_trace:
                self._record(core.index, t, end, op.label, "overhead")
        self.queue.schedule_fast(
            end,
            lambda t2, core=core, op=op: self._finish_op(core, op, t2),
            priority=_OP_PRIORITY,
        )

    def _finish_op(self, core: _Core, op: _Op, t: int) -> None:
        if self._profile_enabled:
            start = _time.perf_counter_ns()
            op.effect(t)
            elapsed = _time.perf_counter_ns() - start
            bucket = _PROFILE_BUCKET.get(op.kind, op.kind)
            count, total = self.profile.get(bucket, (0, 0))
            self.profile[bucket] = (count + 1, total + elapsed)
        else:
            op.effect(t)
        if core.op_queue:
            self._start_next_op(core, t)
        elif core.needs_sched:
            core.needs_sched = False
            sched_op = _Op(
                kind="sched",
                duration=0,  # computed in _start_next_op
                effect=lambda t2, core=core: self._do_sched(core, t2),
                label="sch",
            )
            core.op_queue.append(sched_op)
            self._start_next_op(core, t)
        else:
            self._exit_kernel(core, t)

    def _exit_kernel(self, core: _Core, t: int) -> None:
        core.in_kernel = False
        job = core.running
        if job is None:
            return
        core.dispatched_at = t
        end = t + self._chunk_length(job)
        core.completion_event = self.queue.schedule(
            end, lambda t2, core=core: self._on_chunk_done(core, t2)
        )

    # ------------------------------------------------------------------
    # Critical sections (immediate priority ceiling protocol)
    # ------------------------------------------------------------------

    def _sections_of(self, rt: RTTask):
        if self.resources is None:
            return ()
        return self.resources.sections_of(rt.name)

    def _work_to_boundary(self, job: Job) -> Optional[int]:
        """Work units until the job's next critical-section edge."""
        sections = self._sections_of(job.rt)
        if not sections:
            return None
        executed = job.work - job.work_left
        for section in sections:
            if executed < section.start:
                return section.start - executed
            if executed < section.end:
                return section.end - executed
        return None

    def _chunk_length(self, job: Job) -> int:
        """CPU time until the next simulation-relevant point of this job:
        chunk end (budget/work), a critical-section edge, or — under an
        enforcing overrun policy — the job's nominal-demand boundary."""
        base = job.stage_budget_left
        work_left = job.work_left
        if work_left < base:
            base = work_left
        if (
            self._enforce_overrun
            and not job.demoted
            and job.work > job.nominal_work
        ):
            # Stop exactly when the nominal (analysed) demand is consumed
            # so the policy can act; 0 means the job resumed right at the
            # boundary (e.g. suspended there) and must be handled now.
            boundary = job.nominal_work - (job.work - work_left)
            if 0 <= boundary < base:
                base = boundary
        if self.resources is not None:
            boundary = self._work_to_boundary(job)
            if boundary is not None and boundary < base:
                base = boundary
        return job.penalty_left + base

    def _active_ceiling(self, core: _Core, job: Job) -> Optional[int]:
        """Ceiling priority of the resource the job currently holds."""
        sections = self._sections_of(job.rt)
        if not sections:
            return None
        executed = job.work - job.work_left
        for section in sections:
            if section.start <= executed < section.end:
                return self._core_ceilings[core.index].get(section.resource)
        return None

    def _at_section_end(self, job: Job) -> bool:
        executed = job.work - job.work_left
        return any(
            executed == section.end for section in self._sections_of(job.rt)
        )

    # ------------------------------------------------------------------
    # Scheduling decisions
    # ------------------------------------------------------------------

    def _would_preempt(self, core: _Core) -> bool:
        running = core.running
        if running is None or not core.ready:
            return False
        min_key, _job = core.ready.find_min()
        running_key = self._key_of(core, running)
        if self.resources is not None:
            ceiling = self._active_ceiling(core, running)
            if ceiling is not None:
                # IPCP: the lock holder runs at the resource ceiling.
                running_key = (min(running_key[0], ceiling), running_key[1])
        return min_key < running_key

    def _sched_duration(self, core: _Core) -> int:
        if core.free_dispatch:
            return 0
        return self._models[core.index].sch(
            preemption=self._would_preempt(core)
        )

    def _do_sched(self, core: _Core, t: int) -> None:
        free = core.free_dispatch
        core.free_dispatch = False
        sched_class = self.sched_class
        if core.running is not None:
            if self._would_preempt(core):
                victim = core.running
                core.running = None
                penalty = self._models[core.index].cache.preemption_delay(
                    victim.rt.task.wss
                )
                victim.penalty_left += penalty
                self.cache_delay_ns += penalty
                victim.displaced = True
                victim.preempt_count += 1
                self.task_stats[victim.rt.task.name].preemptions += 1
                self.preemptions += 1
                self._ready_insert(core, victim, t)
                if self.record_trace:
                    self._log_event(
                        t, "preempt", victim.rt.task.name, core.index
                    )
            else:
                # Current job resumes at kernel exit.
                sched_class.after_sched(core, t)
                return
        job = sched_class.pick_next(core)
        if job is None:
            sched_class.after_sched(core, t)
            return
        cnt_op = _Op(
            kind="cnt_in",
            duration=0 if free else self._models[core.index].cnt1,
            effect=lambda t2, core=core, job=job: self._do_dispatch(
                core, job, t2
            ),
            label=f"cnt1:{job.rt.task.name}" if self.record_trace else "cnt1",
        )
        core.op_queue.append(cnt_op)
        sched_class.after_sched(core, t)

    def request_sched(self, core: _Core, t: int) -> None:
        """Ask ``core`` to run a scheduling pass (class-layer hook).

        If the core is already in the kernel, the pending episode ends
        with the pass; otherwise a fresh kernel episode is opened for
        it.  Used by the global classes' work-conservation waterfall.
        """
        if core.in_kernel:
            core.needs_sched = True
            return
        self._kernel_enqueue(
            core,
            _Op(
                kind="sched",
                duration=0,  # computed in _start_next_op
                effect=lambda t2, core=core: self._do_sched(core, t2),
                label="sch",
            ),
            t,
        )

    def _do_dispatch(self, core: _Core, job: Job, t: int) -> None:
        core.running = job
        self.context_switches += 1
        if self.record_trace:
            self._log_event(t, "dispatch", job.rt.task.name, core.index)
        job.cls.on_dispatch(core, job, t)
        # The class hooks above read ``displaced`` (the global classes
        # reclassify a cross-core resume as a migration); the mechanism
        # clears it once the dispatch is done.
        job.displaced = False

    # ------------------------------------------------------------------
    # Chunk completion: job finish or budget exhaustion
    # ------------------------------------------------------------------

    def _on_chunk_done(self, core: _Core, t: int) -> None:
        job = core.running
        assert job is not None, "completion event with no running job"
        executed = t - core.dispatched_at
        if executed > 0:
            job.account(executed)
            job.cls.on_executed(core, job, executed)
            core.busy_ns += executed
            core.busy_pj += executed * self._active_mw[core.index]
            if self.record_trace:
                self._record(
                    core.index, core.dispatched_at, t, job.name, "exec"
                )
        core.completion_event = None
        if not job.chunk_done:
            if self._at_overrun_boundary(job):
                self._on_overrun_boundary(core, job, t)
                return
            # A critical-section edge, not the chunk's end.
            self._on_section_edge(core, job, t)
            return
        core.running = None
        core.in_kernel = True
        self._enqueue_chunk_end(core, job, t, front=False)
        if core.op_queue:
            self._start_next_op(core, t)

    def _on_section_edge(self, core: _Core, job: Job, t: int) -> None:
        """The running job crossed a critical-section boundary."""
        if self._at_section_end(job) and core.ready:
            # Unlock: the kernel runs a scheduling pass — a deferred
            # higher-priority job may now preempt.
            core.in_kernel = True
            core.needs_sched = True
            sched_op = _Op(
                kind="sched",
                duration=0,  # computed in _start_next_op
                effect=lambda t2, core=core: self._do_sched(core, t2),
                label="sch",
            )
            core.needs_sched = False
            core.op_queue.append(sched_op)
            self._start_next_op(core, t)
            return
        # Lock acquisition (or unlock with empty queue): keep running.
        core.dispatched_at = t
        end = t + self._chunk_length(job)
        core.completion_event = self.queue.schedule(
            end, lambda t2, core=core: self._on_chunk_done(core, t2)
        )

    # ------------------------------------------------------------------
    # Overrun policies (fault injection)
    # ------------------------------------------------------------------

    def _at_overrun_boundary(self, job: Job) -> bool:
        """True when an enforcing policy must act on this job *now*: it
        has consumed exactly its nominal demand, has overrun work left,
        and has not been demoted already."""
        return (
            self._enforce_overrun
            and not job.demoted
            and job.work > job.nominal_work
            and job.penalty_left == 0
            and job.work - job.work_left == job.nominal_work
        )

    def _on_overrun_boundary(self, core: _Core, job: Job, t: int) -> None:
        """Apply the overrun policy to a job that just hit nominal C."""
        core.running = None
        core.in_kernel = True
        name = job.rt.task.name
        if self.overrun_policy == "abort-job":
            # Budget enforcement: the job dies here.  Mark it finished
            # immediately so a release at this very instant proceeds
            # (the kernel op below is cleanup charged to the core).
            job.finish_time = t
            self.task_stats[name].jobs_killed += 1
            self.misses.append(
                DeadlineMiss(
                    task=name,
                    job_seq=job.seq,
                    release=job.release,
                    abs_deadline=job.abs_deadline,
                    detected_at=t,
                    kind="aborted",
                )
            )
            if self._injector is not None:
                self._injector.record_policy(
                    t, "abort", name, core.index,
                    f"nominal={job.nominal_work} dropped={job.work_left}",
                )
            self._log_event(t, "abort", name, core.index)
            model = self._models[core.index]
            op = _Op(
                kind="finish",
                duration=model.sch(False) + model.cnt2_finish,
                effect=lambda t2, core=core, job=job: self._do_abort_cleanup(
                    core, job, t2
                ),
                label=f"abrt:{name}" if self.record_trace else "abrt",
            )
        else:  # "demote"
            job.demoted = True
            if self._injector is not None:
                self._injector.record_policy(
                    t, "demote", name, core.index,
                    f"nominal={job.nominal_work} left={job.work_left}",
                )
            self._log_event(t, "demote", name, core.index)
            # The kernel re-queues the job at background priority (one
            # ready-queue insert); the scheduling pass that follows via
            # needs_sched is charged separately, as usual.
            op = _Op(
                kind="demote",
                duration=self._models[core.index].ready_op_ns,
                effect=lambda t2, core=core, job=job: self._do_demote(
                    core, job, t2
                ),
                label=f"dmt:{name}" if self.record_trace else "dmt",
            )
        core.op_queue.append(op)
        self._start_next_op(core, t)

    def _do_abort_cleanup(self, core: _Core, job: Job, t: int) -> None:
        rt = job.rt
        name = rt.task.name
        home = self.cores[rt.home_core]
        self._sleep_nodes[name] = home.sleep.insert(
            (job.release + rt.task.period, name), rt
        )
        core.needs_sched = True
        core.free_dispatch = True  # context load was part of cnt2

    def _do_demote(self, core: _Core, job: Job, t: int) -> None:
        self._ready_insert(core, job, t)
        core.needs_sched = True

    def _enqueue_chunk_end(
        self, core: _Core, job: Job, t: int, front: bool
    ) -> None:
        if job.work_done:
            # The job's response ends *now* (point f in Figure 1); the
            # sch + cnt2 that follow are bookkeeping charged to the core.
            # Mark completion immediately so a release at this very instant
            # sees the predecessor as done.  Note the condition: a split job
            # that finishes its actual work inside a *body* stage completes
            # here too (the paper's cnt_swth case 3).
            job.finish_time = t
            model = self._models[core.index]
            op = _Op(
                kind="finish",
                duration=model.sch(False) + model.cnt2_finish,
                effect=lambda t2, core=core, job=job, done=t: self._do_finish(
                    core, job, t2, completed_at=done
                ),
                label=(
                    f"cnt2:{job.rt.task.name}"
                    if self.record_trace
                    else "cnt2"
                ),
            )
        else:
            action = job.cls.on_budget_exhausted(core, job, t)
            if action != "migrate":
                raise RuntimeError(
                    f"scheduling class {job.cls.name!r} returned unknown "
                    f"budget-exhaustion action {action!r}"
                )
            model = self._models[core.index]
            op = _Op(
                kind="migrate_out",
                duration=model.sch(False) + model.cnt2_migrate,
                effect=lambda t2, core=core, job=job: self._do_migrate_out(
                    core, job, t2
                ),
                label=(
                    f"mig:{job.rt.task.name}" if self.record_trace else "mig"
                ),
            )
        if front:
            core.op_queue.appendleft(op)
        else:
            core.op_queue.append(op)

    def _do_finish(
        self, core: _Core, job: Job, t: int, completed_at: int
    ) -> None:
        job.finish_time = completed_at
        rt = job.rt
        name = rt.task.name
        stats = self.task_stats[name]
        stats.jobs_completed += 1
        response = completed_at - job.release
        stats.total_response += response
        if response > stats.max_response:
            stats.max_response = response
        if self.record_responses:
            stats.responses.append(response)
        if completed_at > job.abs_deadline and job.cls.hard_deadlines:
            self.misses.append(
                DeadlineMiss(
                    task=name,
                    job_seq=job.seq,
                    release=job.release,
                    abs_deadline=job.abs_deadline,
                    detected_at=completed_at,
                    kind="late",
                )
            )
            if self.record_trace:
                self._log_event(completed_at, "miss", name, core.index)
        elif self.record_trace:
            self._log_event(completed_at, "finish", name, core.index)
        # Back to the sleep queue of the core hosting the first subtask
        # (paper §2, tail subtask rule).
        home = self.cores[rt.home_core]
        self._sleep_nodes[name] = home.sleep.insert(
            (job.release + rt.task.period, name), rt
        )
        core.needs_sched = True
        core.free_dispatch = True  # context load was part of cnt2

    def _do_migrate_out(self, core: _Core, job: Job, t: int) -> None:
        name = job.rt.task.name
        delay = 0
        if self._injector is not None:
            fate, delay = self._injector.migration_fate(name, t, core.index)
            if fate == MIGRATION_DROP:
                # The migration is lost in flight: the job's context is
                # destroyed.  Kill the job (a "lost" miss) and return the
                # task to its home sleep queue so future releases proceed.
                job.finish_time = t
                self.task_stats[name].jobs_killed += 1
                self.misses.append(
                    DeadlineMiss(
                        task=name,
                        job_seq=job.seq,
                        release=job.release,
                        abs_deadline=job.abs_deadline,
                        detected_at=t,
                        kind="lost",
                    )
                )
                self._log_event(t, "lost", name, core.index)
                rt = job.rt
                home = self.cores[rt.home_core]
                self._sleep_nodes[name] = home.sleep.insert(
                    (job.release + rt.task.period, name), rt
                )
                core.needs_sched = True
                core.free_dispatch = True  # context load was part of cnt2
                return
            if fate != MIGRATION_LATE:
                delay = 0
        stage = job.advance_stage()
        # Cache reload happens on the *destination* core: its clock
        # governs the penalty.
        penalty = self._models[stage.core].cache.migration_delay(
            job.rt.task.wss
        )
        job.penalty_left += penalty
        self.cache_delay_ns += penalty
        job.migrate_count += 1
        self.task_stats[name].migrations += 1
        self.migrations += 1
        if self.record_trace:
            self._log_event(t, "migrate", name, stage.core)
        destination = self.cores[stage.core]
        arrival = _Op(
            kind="migrate_in",
            duration=0,  # remote insert already paid in cnt2_migrate
            effect=lambda t2, dest=destination, job=job: self._do_migrate_in(
                dest, job, t2
            ),
            label=f"migin:{name}" if self.record_trace else "migin",
        )
        if delay > 0:
            # Late migration: the subtask reaches the destination core's
            # kernel only after the injected in-flight delay.
            self.queue.schedule_fast(
                t + delay,
                lambda t2, dest=destination, op=arrival: self._kernel_enqueue(
                    dest, op, t2
                ),
                priority=_RELEASE_PRIORITY,
            )
        else:
            self._kernel_enqueue(destination, arrival, t)
        core.needs_sched = True
        core.free_dispatch = True  # context load was part of cnt2

    def _do_migrate_in(self, core: _Core, job: Job, t: int) -> None:
        self._ready_insert(core, job, t)
        core.needs_sched = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _key_of(self, core: _Core, job: Job) -> tuple:
        return job.cls.key_of(core, job)

    def _ready_insert(
        self, core: _Core, job: Job, t: Optional[int] = None
    ) -> None:
        job.cls.enqueue(core, job)
        # Every ready-queue insert is a kernel-visible state change; the
        # verification layer reconstructs per-core ready sets from these
        # events, so — unlike the other event kinds — the label carries
        # the *job* name (task/seq), matching the exec-trace labels.
        if self.record_trace and t is not None:
            self.events_log.append((t, "ready", job.name, core.index))

    def _record(
        self, core: int, start: int, end: int, label: str, kind: str
    ) -> None:
        if self.record_trace and end > start:
            self.trace.append((core, start, end, label, kind))

    def _log_event(self, t: int, kind: str, task: str, core: int) -> None:
        if self.record_trace:
            self.events_log.append((t, kind, task, core))

    def _flush_metrics(self) -> None:
        """Record this run's observations into the attached registry.

        One pass at end-of-run: the hot path only bumps plain dicts and
        the instrumented-structure stats; everything registry-shaped
        happens here.  ``sim_*`` metrics are functions of simulated time
        only (deterministic for a fixed scenario); ``wall_*`` metrics
        are wall-clock self-measurements.
        """
        metrics = self._metrics
        assert metrics is not None
        for kind in sorted(self._op_counts):
            metrics.counter("sim_kernel_ops_total", op=kind).inc(
                self._op_counts[kind]
            )
            metrics.counter("sim_kernel_op_ns_total", op=kind).inc(
                self._op_sim_ns[kind]
            )
        metrics.counter("sim_releases_total").inc(self.releases)
        metrics.counter("sim_preemptions_total").inc(self.preemptions)
        metrics.counter("sim_migrations_total").inc(self.migrations)
        metrics.counter("sim_context_switches_total").inc(
            self.context_switches
        )
        metrics.counter("sim_cache_delay_ns_total").inc(self.cache_delay_ns)
        miss_kinds: Dict[str, int] = {}
        for miss in self.misses:
            miss_kinds[miss.kind] = miss_kinds.get(miss.kind, 0) + 1
        for kind in sorted(miss_kinds):
            metrics.counter("sim_deadline_misses_total", kind=kind).inc(
                miss_kinds[kind]
            )
        completed = killed = 0
        for stats in self.task_stats.values():
            completed += stats.jobs_completed
            killed += stats.jobs_killed
        metrics.counter("sim_jobs_completed_total").inc(completed)
        metrics.counter("sim_jobs_killed_total").inc(killed)
        for core in self.cores:
            metrics.counter("sim_core_busy_ns_total", core=core.index).inc(
                core.busy_ns
            )
            metrics.counter(
                "sim_core_overhead_ns_total", core=core.index
            ).inc(core.overhead_ns)
        # Energy family (informational: never gated by compare_reports).
        for row in self.energy.cores:
            metrics.counter(
                "eng_core_busy_pj_total", core=row.core
            ).inc(row.busy_pj)
            metrics.counter(
                "eng_core_overhead_pj_total", core=row.core
            ).inc(row.overhead_pj)
            metrics.counter(
                "eng_core_idle_pj_total", core=row.core
            ).inc(row.idle_pj)
        metrics.counter("eng_total_pj_total").inc(self.energy.total_pj)
        # Queue-operation counts by (queue, op, N) — the deterministic
        # half of the paper's Table-1 δ/θ measurement (the wall-clock
        # half streams into wall_queue_op_ns histograms live).
        for (queue, n), stats in sorted(self._queue_stats.items()):
            for op_name, op_stats in sorted(stats.ops.items()):
                metrics.counter(
                    "sim_queue_ops_total", queue=queue, op=op_name, n=n
                ).inc(op_stats.count)
        # Wall-clock self-profile of the simulator's own handlers
        # (release / scheduling / context-switch effect functions).
        for bucket in sorted(self.profile):
            count, total_ns = self.profile[bucket]
            metrics.counter("wall_handler_calls_total", bucket=bucket).inc(
                count
            )
            metrics.counter("wall_handler_ns_total", bucket=bucket).inc(
                total_ns
            )

    def _finalize(self) -> None:
        """Account partial progress at the horizon and residual misses."""
        t = self.duration
        for core in self.cores:
            job = core.running
            if job is not None and core.completion_event is not None:
                executed = t - core.dispatched_at
                if executed > 0:
                    core.busy_ns += executed
                    core.busy_pj += executed * self._active_mw[core.index]
                    self._record(
                        core.index, core.dispatched_at, t, job.name, "exec"
                    )
                core.completion_event.cancel()
                core.completion_event = None
        # Settle the energy ledger: idle is whatever the horizon left
        # uncharged (zero when the run's last kernel op straddles it).
        rows = []
        for core in self.cores:
            idle_ns = max(
                0, self.duration - core.busy_ns - core.overhead_ns
            )
            freq = self.frequencies[core.index]
            rows.append(
                CoreEnergy(
                    core=core.index,
                    freq_num=freq.numerator,
                    freq_den=freq.denominator,
                    active_mw=self._active_mw[core.index],
                    busy_ns=core.busy_ns,
                    overhead_ns=core.overhead_ns,
                    idle_ns=idle_ns,
                    busy_pj=core.busy_pj,
                    overhead_pj=core.overhead_pj,
                    idle_pj=idle_ns * self._idle_mw,
                )
            )
        self.energy = EnergyLedger(
            duration_ns=self.duration,
            idle_mw=self._idle_mw,
            cores=tuple(rows),
        )
        for job in self._current_jobs.values():
            if (
                job is not None
                and not job.completed
                and job.abs_deadline <= self.duration
                and job.cls.hard_deadlines
            ):
                self.misses.append(
                    DeadlineMiss(
                        task=job.rt.name,
                        job_seq=job.seq,
                        release=job.release,
                        abs_deadline=job.abs_deadline,
                        detected_at=self.duration,
                        kind="incomplete",
                    )
                )
