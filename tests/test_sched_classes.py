"""Property suite for the scheduling-class plugin layer.

Four layers of evidence that the :mod:`repro.kernel.sched_class`
refactor is behaviour-preserving and that the new classes are sound:

* **contract tests** — the registry, binding lifecycle, key-space
  layout, and the constructor guards (global-rm priorities, fair task
  collisions, resource-sharing restrictions);
* **legacy-vs-plugin** — the plugin-based
  :class:`~repro.kernel.sim.KernelSim` must reproduce the frozen output
  of the deleted pre-plugin simulator (``tests/golden/legacy_matrix.json``)
  *bit-for-bit* at full trace granularity, across both policies, the
  fault matrix, and every overrun policy;
* **metamorphic mutations** — integer time-scaling maps a deterministic
  zero-overhead schedule to its exactly-scaled image for the fp and
  global classes;
* **model-based reference** — an independent discrete-time global-EDF
  scheduler (sorted list, unit steps — no heaps, no event queue) must
  produce the identical set of job completion instants as the
  event-driven ``global-edf`` class on step-aligned workloads.

Plus trace-level properties of the new classes (restricted migration
never splits a job across cores; the per-class preemption-order oracle
keys) and the ``cross-class-sanity`` differential pair.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.algorithms import ALGORITHMS, build_assignment
from repro.faults.plan import OVERRUN_POLICIES, FaultPlan, TaskFaults
from repro.kernel import (
    BACKGROUND_KEY,
    FAIR_KEY_BASE,
    SCHED_CLASSES,
    KernelSim,
    SchedulingClass,
    build_global_assignment,
    make_sched_class,
)
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.resources import CriticalSection, ResourceModel
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.trace.validate import CheckContext, run_checkers
from repro.verify import cross_class_sanity, result_to_canonical
from repro.verify.differential import _accepted_assignment, _fault_plan


def _splitting_taskset() -> TaskSet:
    """Three 0.6-utilization tasks on two cores: one must split."""
    return TaskSet(
        [
            Task("a", wcet=6 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=10 * MS),
            Task("c", wcet=6 * MS, period=10 * MS),
        ]
    ).assign_rate_monotonic()


def _split_assignment():
    taskset = _splitting_taskset()
    assignment = build_assignment("FP-TS", taskset, 2, OverheadModel.zero())
    assert assignment is not None and assignment.split_tasks
    return taskset, assignment


# ----------------------------------------------------------------------
# Contract tests
# ----------------------------------------------------------------------


class TestContract:
    def test_registry_names(self):
        assert set(SCHED_CLASSES) == {
            "fp",
            "edf",
            "restricted",
            "global-edf",
            "global-rm",
            "fair",
        }
        for name, factory in SCHED_CLASSES.items():
            instance = factory()
            assert isinstance(instance, SchedulingClass)
            assert instance.name == name

    def test_make_sched_class_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduling class"):
            make_sched_class("cfs")

    def test_make_sched_class_passes_instances_through(self):
        instance = SCHED_CLASSES["edf"]()
        assert make_sched_class(instance) is instance
        assert make_sched_class("fp").name == "fp"

    def test_instances_are_single_use(self):
        taskset = _splitting_taskset()
        assignment = build_global_assignment(taskset, 2)
        cls = SCHED_CLASSES["global-edf"]()
        KernelSim(
            assignment, OverheadModel.zero(), 10 * MS, sched_class=cls
        )
        with pytest.raises(RuntimeError, match="single-use"):
            KernelSim(
                assignment, OverheadModel.zero(), 10 * MS, sched_class=cls
            )

    def test_key_space_layout(self):
        # Hard-RT ranks (small ints / ns deadlines) < fair < background.
        assert 10**12 < FAIR_KEY_BASE < BACKGROUND_KEY

    def test_global_rm_requires_priorities(self):
        tasks = TaskSet([Task("a", wcet=MS, period=10 * MS)])  # no prios
        with pytest.raises(ValueError, match="requires task priorities"):
            KernelSim(
                build_global_assignment(tasks, 2),
                OverheadModel.zero(),
                10 * MS,
                sched_class="global-rm",
            )

    def test_fair_task_name_collision(self):
        _taskset, assignment = _split_assignment()
        with pytest.raises(ValueError, match="collides"):
            KernelSim(
                assignment,
                OverheadModel.zero(),
                10 * MS,
                fair_tasks=[Task("a", wcet=MS, period=20 * MS)],
            )

    def test_resources_need_fp_class(self):
        taskset = TaskSet(
            [Task("a", wcet=2 * MS, period=10 * MS)]
        ).assign_rate_monotonic()
        assignment = build_assignment(
            "FFD", taskset, 1, OverheadModel.zero()
        )
        resources = ResourceModel()
        resources.add("a", CriticalSection("r", start=0, duration=MS))
        with pytest.raises(ValueError, match="FP policy"):
            KernelSim(
                assignment,
                OverheadModel.zero(),
                10 * MS,
                resources=resources,
                sched_class="edf",
            )
        with pytest.raises(ValueError, match="fair_tasks"):
            KernelSim(
                assignment,
                OverheadModel.zero(),
                10 * MS,
                resources=resources,
                fair_tasks=[Task("bg", wcet=MS, period=20 * MS)],
            )

    def test_algorithm_specs_declare_classes(self):
        assert ALGORITHMS["FP-TS"].sched_class == "fp"
        assert ALGORITHMS["C=D"].sched_class == "edf"
        assert ALGORITHMS["P-EDF"].sched_class == "edf"
        assert ALGORITHMS["G-EDF"].sched_class == "global-edf"
        assert ALGORITHMS["G-RM"].sched_class == "global-rm"


# ----------------------------------------------------------------------
# Legacy-vs-plugin: the frozen pre-plugin matrix
# ----------------------------------------------------------------------

#: Frozen output of ``LegacyKernelSim``, the monolithic simulator that
#: predated the scheduling-class layer, generated immediately before that
#: simulator was deleted.  It covers every run the retired
#: ``legacy-vs-plugin`` differential pair made in the test suite and CI:
#: generated FP-TS (``fp``) and C=D (``edf``) task sets over the fault
#: matrix and all overrun policies at base seed 0 x 36 trials, 1 x 5 and
#: 3 x 100 (trial ``t`` of base seed ``s`` runs combination ``t mod 18``
#: at seed ``s + t``), plus one forced-overrun split run per overrun
#: policy.  Each entry stores the run's key, the sha256 of its compact
#: sort-keyed canonical result, and the scalar counters, so a mismatch
#: names what moved.  The producer is gone, so the file cannot be
#: regenerated: a failure is a behaviour change of ``KernelSim``.
LEGACY_MATRIX = json.loads(
    (Path(__file__).parent / "golden" / "legacy_matrix.json").read_text()
)

#: (policy, fault plan, overrun policy) in the order trials cycle through.
_LEGACY_COMBOS = [
    (policy, plan_kind, overrun_policy)
    for policy in ("fp", "edf")
    for plan_kind in ("none", "moderate", "full")
    for overrun_policy in OVERRUN_POLICIES
]
_LEGACY_RUNS = ((0, 36), (1, 5), (3, 100))  # (base seed, trials)
_FORCED_SEED = 5


def _legacy_keys():
    """Every frozen (policy, fault plan, overrun policy, seed)."""
    keys = []
    for base_seed, trials in _LEGACY_RUNS:
        for trial in range(trials):
            combo = _LEGACY_COMBOS[trial % len(_LEGACY_COMBOS)]
            key = (*combo, base_seed + trial)
            if key not in keys:
                keys.append(key)
    for overrun_policy in OVERRUN_POLICIES:
        keys.append(("fp", "forced-overrun", overrun_policy, _FORCED_SEED))
    return keys


def _legacy_key(entry: dict) -> tuple:
    return (
        entry["policy"],
        entry["faults"],
        entry["overrun_policy"],
        entry["seed"],
    )


def _legacy_run(policy, plan_kind, overrun_policy, seed):
    """Re-run one frozen key through :class:`KernelSim`."""
    if plan_kind == "forced-overrun":
        # Deterministic overruns on the split task of a 3 x 0.6 set.
        _taskset, assignment = _split_assignment()
        plan = FaultPlan(
            tasks={
                "a": TaskFaults(overrun_factor=1.5, overrun_probability=1.0)
            },
            migration_delay_probability=0.5,
            migration_delay_ns=50_000,
            seed=7,
        )
        return KernelSim(
            assignment,
            OverheadModel.paper_core_i7(2),
            80 * MS,
            record_trace=True,
            seed=seed,
            faults=plan,
            overrun_policy=overrun_policy,
        ).run()
    algorithm = "FP-TS" if policy == "fp" else "C=D"
    taskset, assignment = _accepted_assignment(algorithm, seed)
    assert assignment is not None, f"no accepted {algorithm} set, seed {seed}"
    return KernelSim(
        assignment,
        OverheadModel.paper_core_i7(2),
        4 * max(t.period for t in taskset),
        record_trace=True,
        policy=policy,
        sporadic_jitter=MS,
        execution_variation=0.3,
        seed=seed,
        faults=_fault_plan(plan_kind, seed),
        overrun_policy=overrun_policy,
    ).run()


def _legacy_moved(frozen: dict, result) -> dict:
    """Fields of a frozen entry that ``result`` no longer reproduces."""
    canonical = json.dumps(
        result_to_canonical(result), sort_keys=True, separators=(",", ":")
    )
    fresh = {
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "switches": result.context_switches,
        "preemptions": result.preemptions,
        "migrations": result.migrations,
        "releases": result.releases,
        "misses": result.miss_count,
        "busy_ns": list(result.busy_ns),
        "overhead_ns": list(result.overhead_ns),
    }
    return {
        field: (frozen[field], value)
        for field, value in fresh.items()
        if frozen[field] != value
    }


class TestLegacyVsPlugin:
    def test_matrix_covers_every_frozen_run(self):
        assert [_legacy_key(e) for e in LEGACY_MATRIX] == _legacy_keys()

    def test_full_matrix_pair(self):
        """Every generated run: both policies, the fault matrix, every
        overrun policy, 141 seeds."""
        moved = {}
        for frozen in LEGACY_MATRIX:
            key = _legacy_key(frozen)
            if key[1] != "forced-overrun":
                delta = _legacy_moved(frozen, _legacy_run(*key))
                if delta:
                    moved[key] = delta
        assert not moved, f"KernelSim no longer reproduces: {moved}"

    @pytest.mark.parametrize("overrun_policy", OVERRUN_POLICIES)
    def test_full_trace_identity_under_forced_overruns(self, overrun_policy):
        """Deterministic overruns on a split task, per overrun policy."""
        key = ("fp", "forced-overrun", overrun_policy, _FORCED_SEED)
        (frozen,) = [e for e in LEGACY_MATRIX if _legacy_key(e) == key]
        result = _legacy_run(*key)
        assert result.faults.as_dicts(), "plan must actually inject"
        assert _legacy_moved(frozen, result) == {}


# ----------------------------------------------------------------------
# Metamorphic: integer time scaling
# ----------------------------------------------------------------------


def _scaled(taskset: TaskSet, k: int) -> TaskSet:
    return TaskSet(
        [
            Task(
                name=t.name,
                wcet=t.wcet * k,
                period=t.period * k,
                deadline=t.deadline * k,
                wss=t.wss,
            )
            for t in taskset
        ]
    ).assign_rate_monotonic()


def _scale_canonical(doc: dict, k: int) -> dict:
    """The exact image of a canonical result under time scaling."""
    out = dict(doc)
    out["duration"] = doc["duration"] * k
    out["trace"] = [
        [core, start * k, end * k, label, kind]
        for core, start, end, label, kind in doc["trace"]
    ]
    out["events"] = [
        [t * k, kind, label, core] for t, kind, label, core in doc["events"]
    ]
    out["busy_ns"] = [v * k for v in doc["busy_ns"]]
    out["task_stats"] = {
        name: {
            key: (
                value * k
                if key in ("total_response", "max_response")
                else value
            )
            for key, value in stats.items()
        }
        for name, stats in doc["task_stats"].items()
    }
    out["misses"] = [
        {
            key: (
                value * k
                if key in ("release", "abs_deadline", "detected_at")
                else value
            )
            for key, value in miss.items()
        }
        for miss in doc["misses"]
    ]
    return out


class TestTimeScalingMetamorphic:
    K = 3

    def _run(self, assignment, sched_class, duration):
        return result_to_canonical(
            KernelSim(
                assignment,
                OverheadModel.zero(),
                duration,
                record_trace=True,
                sched_class=sched_class,
            ).run()
        )

    @pytest.mark.parametrize("sched_class", ["global-edf", "global-rm"])
    def test_global_classes_scale_exactly(self, sched_class):
        taskset = _splitting_taskset()
        base = self._run(
            build_global_assignment(taskset, 2), sched_class, 60 * MS
        )
        scaled = self._run(
            build_global_assignment(_scaled(taskset, self.K), 2),
            sched_class,
            60 * MS * self.K,
        )
        assert scaled == _scale_canonical(base, self.K)

    def test_fp_partition_scales_exactly(self):
        taskset = TaskSet(
            [
                Task("a", wcet=2 * MS, period=10 * MS),
                Task("b", wcet=6 * MS, period=20 * MS),
                Task("c", wcet=5 * MS, period=25 * MS),
            ]
        ).assign_rate_monotonic()
        base_assignment = build_assignment(
            "FFD", taskset, 2, OverheadModel.zero()
        )
        scaled_assignment = build_assignment(
            "FFD", _scaled(taskset, self.K), 2, OverheadModel.zero()
        )
        base = self._run(base_assignment, "fp", 100 * MS)
        scaled = self._run(scaled_assignment, "fp", 100 * MS * self.K)
        assert scaled == _scale_canonical(base, self.K)


# ----------------------------------------------------------------------
# Model-based reference: independent global-EDF scheduler
# ----------------------------------------------------------------------


def _reference_global_edf(tasks, n_cores, duration, step):
    """Discrete-time global EDF: sorted list, unit quanta, no heaps.

    Returns the set of (task, completion instant) pairs.  Exact for
    workloads whose releases, WCETs, and deadlines are all multiples of
    ``step`` (every scheduling decision then falls on a step boundary)
    and whose absolute deadlines never tie inside the horizon.
    """
    jobs = []
    finished = set()
    for now in range(0, duration, step):
        for task in tasks:
            if now % task.period == 0:
                jobs.append(
                    {
                        "task": task.name,
                        "deadline": now + task.deadline,
                        "left": task.wcet,
                    }
                )
        ready = sorted(
            (job for job in jobs if job["left"] > 0),
            key=lambda job: job["deadline"],
        )
        for job in ready[:n_cores]:
            job["left"] -= step
            if job["left"] == 0:
                finished.add((job["task"], now + step))
    return finished


class TestGlobalEdfReferenceModel:
    def test_completions_match_reference(self):
        # Pairwise LCM of the periods (77, 91, 143 ms) exceeds the
        # horizon, so no two absolute deadlines ever tie and the
        # reference needs no tie-breaking rule at all.
        tasks = [
            Task("x", wcet=3 * MS, period=7 * MS),
            Task("y", wcet=5 * MS, period=11 * MS),
            Task("z", wcet=6 * MS, period=13 * MS),
        ]
        duration = 70 * MS
        result = KernelSim(
            build_global_assignment(tasks, 2),
            OverheadModel.zero(),
            duration,
            record_trace=True,
            sched_class="global-edf",
        ).run()
        simulated = {
            (label, t)
            for t, kind, label, _core in result.events
            if kind == "finish"
        }
        reference = _reference_global_edf(tasks, 2, duration, MS)
        assert simulated == reference
        assert len(reference) > 10, "workload must exercise the schedule"


# ----------------------------------------------------------------------
# Cross-class properties
# ----------------------------------------------------------------------


class TestCrossClass:
    def test_cross_class_sanity_pair(self):
        assert cross_class_sanity(trials=4, seed=1) == []

    def test_restricted_jobs_never_split_across_cores(self):
        _taskset, assignment = _split_assignment()
        runs = {
            sched_class: KernelSim(
                assignment,
                OverheadModel.zero(),
                100 * MS,
                record_trace=True,
                sched_class=sched_class,
            ).run()
            for sched_class in ("fp", "restricted")
        }
        cores_per_job = {}
        for core, _s, _e, label, kind in runs["restricted"].trace:
            if kind == "exec":
                cores_per_job.setdefault(label, set()).add(core)
        assert all(len(cores) == 1 for cores in cores_per_job.values())
        # ... while the unrestricted schedule does split jobs mid-way.
        fp_cores = {}
        for core, _s, _e, label, kind in runs["fp"].trace:
            if kind == "exec":
                fp_cores.setdefault(label, set()).add(core)
        assert any(len(cores) > 1 for cores in fp_cores.values())
        # And the migration counts stay a subset, per task and total.
        for task in assignment.split_tasks:
            assert (
                runs["restricted"].task_stats[task].migrations
                <= runs["fp"].task_stats[task].migrations
            )
        assert runs["restricted"].migrations <= runs["fp"].migrations

    def test_fair_class_never_displaces_rt_work(self):
        _taskset, assignment = _split_assignment()
        fair_tasks = [
            Task("bg0", wcet=2 * MS, period=25 * MS),
            Task("bg1", wcet=3 * MS, period=40 * MS),
        ]
        alone = KernelSim(
            assignment, OverheadModel.zero(), 100 * MS
        ).run()
        mixed = KernelSim(
            assignment,
            OverheadModel.zero(),
            100 * MS,
            fair_tasks=fair_tasks,
        ).run()
        for task in ("a", "b", "c"):
            assert (
                mixed.task_stats[task].jobs_completed
                == alone.task_stats[task].jobs_completed
            )
            assert (
                mixed.task_stats[task].max_response
                == alone.task_stats[task].max_response
            )
        assert mixed.miss_count == alone.miss_count == 0
        # Background work runs in the leftover capacity...
        assert any(
            mixed.task_stats[t.name].jobs_completed > 0 for t in fair_tasks
        )
        # ...and never records deadline misses (hard_deadlines=False).
        assert not [
            m for m in mixed.misses if m.task in ("bg0", "bg1")
        ]


# ----------------------------------------------------------------------
# Pinned per-class preemption/migration counters
# ----------------------------------------------------------------------


class TestCounterSemantics:
    """Regression pins for the counter-correctness sweep.

    The rules being pinned:

    * ``restricted`` migrates jobs only at job boundaries, and each
      cross-core job-boundary placement **is** a migration (it used to
      go uncounted because the per-job stage plan never calls the
      split-task migration path);
    * the global classes count one event per displacement: a preempted
      job that *resumes on another core* is a migration, not a
      preemption **and** a migration (the preemption recorded at
      displacement time is reclassified on cross-core resume);
    * per-task stats always sum to the platform counters.

    Values are pinned for the deterministic splitting scenario (three
    0.6-utilization tasks on two cores, paper overheads, 50 ms) so any
    future drift in counting semantics fails loudly here.
    """

    #: sched_class -> (preemptions, migrations, context_switches)
    PINNED = {
        "fp": (7, 5, 25),
        "edf": (5, 5, 23),
        "restricted": (0, 4, 11),
        "global-edf": (0, 0, 13),
        "global-rm": (0, 2, 15),
    }

    def _run(self, sched_class):
        taskset = _splitting_taskset()
        if sched_class.startswith("global"):
            assignment = build_global_assignment(taskset, 2)
        else:
            _taskset, assignment = _split_assignment()
        return KernelSim(
            assignment,
            OverheadModel.paper_core_i7(3),
            duration=50 * MS,
            execution_times={t.name: t.wcet for t in taskset},
            sched_class=sched_class,
            record_trace=True,
        ).run()

    @pytest.mark.parametrize("sched_class", sorted(PINNED))
    def test_pinned_counters(self, sched_class):
        result = self._run(sched_class)
        assert (
            result.preemptions,
            result.migrations,
            result.context_switches,
        ) == self.PINNED[sched_class]

    @pytest.mark.parametrize("sched_class", sorted(PINNED))
    def test_task_stats_sum_to_platform_counters(self, sched_class):
        result = self._run(sched_class)
        assert (
            sum(s.preemptions for s in result.task_stats.values())
            == result.preemptions
        )
        assert (
            sum(s.migrations for s in result.task_stats.values())
            == result.migrations
        )

    def test_restricted_counts_job_boundary_core_changes(self):
        """Each time restricted migration places a split task's next job
        on a different core, exactly one migration (and a ``migrate``
        event) is recorded — and no mid-job core change ever happens."""
        result = self._run("restricted")
        migrate_events = [
            e for e in result.events if e[1] == "migrate"
        ]
        assert len(migrate_events) == result.migrations > 0
        # All migrations belong to the split task.
        split_name = next(
            n for n, s in result.task_stats.items() if s.migrations
        )
        assert all(e[2] == split_name for e in migrate_events)

    def test_global_no_double_count_on_cross_core_resume(self):
        """A displaced job resuming on another core counts once.  In the
        pinned global-rm scenario every displacement resumes cross-core,
        so preemptions stay zero while migrations are positive."""
        result = self._run("global-rm")
        assert result.migrations > 0
        assert result.preemptions == 0


# ----------------------------------------------------------------------
# Per-class preemption-order oracle keys
# ----------------------------------------------------------------------


class TestClassAwareOracles:
    def test_global_edf_clean_run_passes_all_checkers(self):
        taskset = _splitting_taskset()
        assignment = build_global_assignment(taskset, 2)
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            100 * MS,
            record_trace=True,
            sched_class="global-edf",
        ).run()
        ctx = CheckContext.from_result(
            result, assignment, sched_class="global-edf"
        )
        assert run_checkers(ctx) == []

    def test_preemption_order_flags_global_inversion(self):
        """A fabricated trace where a late-deadline job hogs a core."""
        tasks = [
            Task("a", wcet=2 * MS, period=10 * MS),
            Task("b", wcet=2 * MS, period=10 * MS, deadline=5 * MS),
        ]
        assignment = build_global_assignment(tasks, 2)
        events = [
            (0, "release", "a", 0),
            (0, "ready", "a/0", 0),
            (0, "dispatch", "a", 0),
            (1 * MS, "release", "b", 1),
            (1 * MS, "ready", "b/1", 1),
            (6 * MS, "dispatch", "b", 1),
        ]
        # "a" (deadline 10 ms) runs 0-6 ms while "b" (deadline 6 ms)
        # waits from 1 ms: a global-EDF inversion.
        trace = [(0, 0, 6 * MS, "a/0", "exec")]
        ctx = CheckContext(
            trace=trace,
            assignment=assignment,
            events=events,
            duration=10 * MS,
            sched_class="global-edf",
            overhead_ns=[0, 0],
        )
        violations = run_checkers(ctx, ["preemption-order"])
        assert len(violations) == 1
        assert "b/1" in violations[0].detail
        # The identical history is legal under per-core FP keys (the
        # jobs are on different cores there), proving the global merge
        # is what catches it.
        ctx_fp = CheckContext(
            trace=trace,
            assignment=assignment,
            events=events,
            duration=10 * MS,
            sched_class="fp",
        )
        assert run_checkers(ctx_fp, ["preemption-order"]) == []

    def test_preemption_order_fair_keys(self):
        """A running fair job must yield to a ready RT job; ready fair
        jobs are unjudgeable and skipped."""
        taskset = TaskSet(
            [Task("a", wcet=2 * MS, period=10 * MS)]
        ).assign_rate_monotonic()
        assignment = build_assignment(
            "FFD", taskset, 1, OverheadModel.zero()
        )
        base_events = [
            (0, "ready", "bg/0", 0),
            (0, "dispatch", "bg", 0),
            (1 * MS, "release", "a", 0),
            (1 * MS, "ready", "a/1", 0),
            (3 * MS, "dispatch", "a", 0),
        ]
        bad = CheckContext(
            trace=[(0, 0, 3 * MS, "bg/0", "exec")],
            assignment=assignment,
            events=base_events,
            duration=10 * MS,
            fair_tasks={"bg"},
        )
        violations = run_checkers(bad, ["preemption-order"])
        assert len(violations) == 1 and "a/1" in violations[0].detail
        # Converse: the RT job running over a *ready* fair job is fine.
        good = CheckContext(
            trace=[(0, 1 * MS, 3 * MS, "a/1", "exec")],
            assignment=assignment,
            events=base_events,
            duration=10 * MS,
            fair_tasks={"bg"},
        )
        assert run_checkers(good, ["preemption-order"]) == []

    def test_budget_and_handoff_oracles_respect_restricted(self):
        _taskset, assignment = _split_assignment()
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            100 * MS,
            record_trace=True,
            sched_class="restricted",
        ).run()
        restricted_ctx = CheckContext.from_result(
            result, assignment, sched_class="restricted"
        )
        assert run_checkers(
            restricted_ctx, ["budget", "handoff-order", "preemption-order"]
        ) == []
        # The same trace read with default-fp semantics violates the
        # subtask-walk invariant (jobs start on later-stage cores) —
        # the class-aware skip is load-bearing.
        fp_ctx = CheckContext.from_result(result, assignment)
        assert run_checkers(fp_ctx, ["handoff-order"]) != []
