"""Deeper kernel-simulator tests: multi-core interaction, time-accounting
decomposition, schedule periodicity, and overhead-charging exactness.
"""

from __future__ import annotations

import pytest

from repro.kernel.sim import KernelSim
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.split import SplitTask
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.partition.heuristics import partition_first_fit_decreasing
from repro.semipart.fpts import fpts_partition
from repro.trace.gantt import segment_summary


def _assignment(specs, n_cores):
    ts = TaskSet(
        [Task(f"t{i}", wcet=c, period=p) for i, (c, p) in enumerate(specs)]
    ).assign_rate_monotonic()
    assignment = partition_first_fit_decreasing(ts, n_cores)
    assert assignment is not None
    return assignment


def _split_assignment():
    ts = TaskSet(
        [
            Task("a", wcet=6 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=10 * MS),
            Task("c", wcet=6 * MS, period=10 * MS),
        ]
    ).assign_rate_monotonic()
    assignment = fpts_partition(ts, 2)
    assert assignment is not None
    return assignment


class TestTimeDecomposition:
    """busy + overhead + idle must exactly tile each core's timeline."""

    def _check(self, assignment, model, duration):
        result = KernelSim(
            assignment, model, duration=duration, record_trace=True
        ).run()
        summary = segment_summary(result.trace)
        # Trace segments reproduce the accounted busy/overhead time.
        assert summary.get("exec", 0) == sum(result.busy_ns)
        assert summary.get("overhead", 0) == sum(result.overhead_ns)
        # Per-core segments never overlap and fit the horizon.
        per_core_total = {}
        for core, start, end, _label, _kind in result.trace:
            assert 0 <= start <= end <= duration
            per_core_total[core] = per_core_total.get(core, 0) + (end - start)
        for core, total in per_core_total.items():
            assert total <= duration
        return result

    def test_zero_overhead(self):
        self._check(
            _assignment([(2, 10), (3, 15)], 1), OverheadModel.zero(), 300
        )

    def test_paper_overheads_single_core(self):
        self._check(
            _assignment([(2 * MS, 10 * MS), (3 * MS, 15 * MS)], 1),
            OverheadModel.paper_core_i7(4),
            300 * MS,
        )

    def test_paper_overheads_split(self):
        self._check(
            _split_assignment(), OverheadModel.paper_core_i7(4), 200 * MS
        )


class TestOverheadChargingExactness:
    def test_per_job_overhead_formula_no_preemption(self):
        """A lone task: overhead per job is exactly rls + sch + cnt1 +
        sch + cnt2 (arrival without preemption + completion)."""
        model = OverheadModel.paper_core_i7(4)
        assignment = _assignment([(1 * MS, 10 * MS)], 1)
        result = KernelSim(assignment, model, duration=100 * MS).run()
        per_job = (
            model.rls
            + model.sch(False)
            + model.cnt1
            + model.sch(False)
            + model.cnt2_finish
        )
        assert result.overhead_ns[0] == 10 * per_job

    def test_exact_overhead_accounting_with_preemptions(self):
        """Hand-computed charge count for the (3,10)+(8,20) workload.

        Per 20 ms hyperperiod:
        * t=0: both releases join one kernel episode: 2x rls, one sch
          (core idle: no re-queue), one cnt1 — synchronized releases share
          the scheduling pass, like a tick handler;
        * each of the 3 job completions: sch(False) + cnt2 (the follow-up
          dispatch is free — the context load is inside cnt2);
        * t=10 ms: t0's release preempts t1: rls + sch(True) + cnt1.
        """
        model = OverheadModel.paper_core_i7(4)
        assignment = _assignment([(3 * MS, 10 * MS), (8 * MS, 20 * MS)], 1)
        result = KernelSim(assignment, model, duration=200 * MS).run()
        assert result.preemptions == 10
        hyperperiods = 10
        per_hyper = (
            3 * model.rls              # three releases
            + 4 * model.sch(False)     # 1 arrival pass + 3 completion passes
            + 1 * model.sch(True)      # the preempting arrival at t=10ms
            + 2 * model.cnt1           # two charged dispatches
            + 3 * model.cnt2_finish    # three completions
        )
        assert result.overhead_ns[0] == hyperperiods * per_hyper

    def test_migration_charges_both_sides(self):
        model = OverheadModel.paper_core_i7(4)
        assignment = _split_assignment()
        result = KernelSim(assignment, model, duration=100 * MS).run()
        # Source side charged cnt2_migrate; destination a scheduling pass.
        # Just assert both cores accumulated overhead and migrations flowed.
        assert result.migrations == 10
        assert result.overhead_ns[0] > 0 and result.overhead_ns[1] > 0


class TestMulticoreInteraction:
    def test_migration_arrival_preempts_lower_priority(self):
        """A migrated tail with top local priority preempts the resident."""
        assignment = _split_assignment()
        result = KernelSim(
            assignment, OverheadModel.zero(), duration=100 * MS
        ).run()
        # The tail lands on core1 where a 6ms task runs: preemption each
        # period (tail arrives at 4ms into the resident's 6ms execution).
        assert result.preemptions >= 10

    def test_cores_do_not_interfere_without_splits(self):
        """Independent cores: responses equal the single-core case."""
        a1 = _assignment([(2, 10)], 1)
        r1 = KernelSim(a1, OverheadModel.zero(), duration=100).run()
        a2 = _assignment([(2, 10), (3, 10)], 2)
        r2 = KernelSim(a2, OverheadModel.zero(), duration=100).run()
        assert (
            r2.task_stats["t0"].max_response
            == r1.task_stats["t0"].max_response
        )

    def test_three_core_chain_split(self):
        """A split chained over three cores migrates twice per job."""
        task = Task("s", wcet=9, period=30, priority=0)
        assignment = Assignment(3)
        split = SplitTask.build(task, [(0, 3), (1, 3), (2, 3)])
        for sub in split.subtasks:
            assignment.add_entry(
                Entry(
                    kind=EntryKind.TAIL if sub.is_tail else EntryKind.BODY,
                    task=task,
                    core=sub.core,
                    budget=sub.budget,
                    subtask=sub,
                    deadline=30 - 3 * sub.index,
                    jitter=3 * sub.index,
                    local_priority=0,
                    body_rank=sub.index,
                )
            )
        assignment.register_split(split)
        result = KernelSim(
            assignment, OverheadModel.zero(), duration=300
        ).run()
        assert result.migrations == 20
        assert result.task_stats["s"].max_response == 9


class TestSchedulePeriodicity:
    """For synchronous periodic sets, the zero-overhead schedule repeats
    with the hyperperiod: job k and job k + H/T have equal responses."""

    @pytest.mark.parametrize(
        "specs",
        [
            [(2, 10), (3, 15)],
            [(4, 8), (4, 16), (8, 32)],
            [(1, 4), (2, 6), (3, 12)],
        ],
    )
    def test_responses_repeat_with_hyperperiod(self, specs):
        ts = TaskSet(
            [
                Task(f"t{i}", wcet=c, period=p)
                for i, (c, p) in enumerate(specs)
            ]
        ).assign_rate_monotonic()
        assignment = partition_first_fit_decreasing(ts, 1)
        assert assignment is not None
        hyper = ts.hyperperiod()
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=3 * hyper,
            record_responses=True,
        ).run()
        assert result.miss_count == 0
        for i, (c, p) in enumerate(specs):
            responses = result.task_stats[f"t{i}"].responses
            jobs_per_hyper = hyper // p
            first = responses[:jobs_per_hyper]
            second = responses[jobs_per_hyper : 2 * jobs_per_hyper]
            assert first == second, f"t{i} schedule not hyperperiodic"


class TestEdgeCases:
    def test_task_with_period_longer_than_horizon(self):
        assignment = _assignment([(2, 1000)], 1)
        result = KernelSim(assignment, OverheadModel.zero(), duration=50).run()
        assert result.task_stats["t0"].jobs_released == 1
        assert result.task_stats["t0"].jobs_completed == 1

    def test_job_cut_by_horizon_not_counted_as_miss(self):
        # Job released at 90, wcet 20, deadline 190 > horizon 100.
        assignment = _assignment([(20, 200)], 1)
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=100,
            release_offsets={"t0": 90},
        ).run()
        assert result.miss_count == 0
        assert result.task_stats["t0"].jobs_completed == 0
        assert result.busy_ns[0] == 10  # partial progress accounted

    def test_job_cut_by_horizon_with_passed_deadline_is_miss(self):
        assignment = _assignment([(20, 200)], 1)
        # Overload the core so t0 cannot finish by its deadline 30.
        ts = TaskSet(
            [
                Task("hog", wcet=9, period=10),
                Task("t0", wcet=20, period=200, deadline=30),
            ]
        ).assign_rate_monotonic()
        assignment = Assignment(1)
        for priority, task in enumerate(ts.sorted_by_priority()):
            assignment.add_entry(
                Entry(
                    kind=EntryKind.NORMAL,
                    task=task,
                    core=0,
                    budget=task.wcet,
                    local_priority=priority,
                )
            )
        result = KernelSim(assignment, OverheadModel.zero(), duration=100).run()
        kinds = {m.kind for m in result.misses if m.task == "t0"}
        assert "incomplete" in kinds or "late" in kinds

    def test_single_task_filling_core_exactly(self):
        ts = TaskSet([Task("full", wcet=10, period=10)])
        ts = ts.assign_rate_monotonic()
        assignment = partition_first_fit_decreasing(ts, 1)
        result = KernelSim(assignment, OverheadModel.zero(), duration=100).run()
        assert result.miss_count == 0
        assert result.busy_ns[0] == 100


class TestInlineOpChains:
    """A core's next kernel op runs inline only when it is provably the
    next event: it ends within the horizon and strictly before every
    pending heap entry.  Every expected sequence below was produced by
    the simulator that pushed each op through the heap."""

    # rls = 3, sch = 5, cnt1 = 2, finish (sch + cnt2) = 7.
    MODEL = OverheadModel(release_ns=3, sch_ns=5, cnt_swth_ns=2)

    def _run(self, duration, offsets=None, wcets=None):
        """Task ``a`` alone on core 0 (and ``b`` on core 1 when given)."""
        wcets = wcets or {"a": 20}
        assignment = Assignment(len(wcets))
        for core, name in enumerate(sorted(wcets)):
            task = Task(name, wcet=wcets[name], period=100)
            assignment.add_entry(
                Entry(
                    kind=EntryKind.NORMAL,
                    task=task,
                    core=core,
                    budget=task.wcet,
                    local_priority=0,
                )
            )
        return KernelSim(
            assignment,
            self.MODEL,
            duration=duration,
            record_trace=True,
            release_offsets=offsets,
        ).run()

    def test_release_at_op_end_joins_first(self):
        # Core 0's cnt1 (after an inline sch) ends at 10, the instant b
        # is released on core 1: the release runs before the dispatch.
        result = self._run(100, {"b": 10}, {"a": 20, "b": 20})
        assert result.events == [
            (0, "release", "a", 0),
            (3, "ready", "a/1", 0),
            (10, "release", "b", 1),
            (10, "dispatch", "a", 0),
            (13, "ready", "b/2", 1),
            (20, "dispatch", "b", 1),
            (30, "finish", "a", 0),
            (40, "finish", "b", 1),
        ]

    def test_completion_at_op_end_runs_first(self):
        # Core 0's sch ends at 60, the instant b's chunk completes on
        # core 1: b's exec and cnt2 rows precede a's cnt1 row.
        result = self._run(100, {"a": 52}, {"a": 20, "b": 50})
        assert result.trace == [
            (1, 0, 3, "rls:b", "overhead"),
            (1, 3, 8, "sch", "overhead"),
            (1, 8, 10, "cnt1:b", "overhead"),
            (0, 52, 55, "rls:a", "overhead"),
            (0, 55, 60, "sch", "overhead"),
            (1, 10, 60, "b/1", "exec"),
            (1, 60, 67, "cnt2:b", "overhead"),
            (0, 60, 62, "cnt1:a", "overhead"),
            (0, 62, 82, "a/2", "exec"),
            (0, 82, 89, "cnt2:a", "overhead"),
        ]
        assert result.events[3:6] == [
            (52, "release", "a", 0),
            (55, "ready", "a/2", 0),
            (62, "dispatch", "a", 0),
        ]

    @pytest.mark.parametrize(
        "duration,overhead,last_op",
        [
            (5, 8, "sch"),  # sch ends at 8, past the horizon: not run
            (8, 10, "cnt1:a"),  # sch ends at the horizon and runs
        ],
    )
    def test_op_past_horizon_is_charged_but_not_run(
        self, duration, overhead, last_op
    ):
        result = self._run(duration)
        # The op that straddles the horizon is charged in full ...
        assert result.overhead_ns == [overhead]
        assert result.trace[-1][3] == last_op
        assert result.energy.cores[0].idle_ns == 0
        # ... but its effect never runs: a is never dispatched.
        assert result.context_switches == 0
        assert result.events == [
            (0, "release", "a", 0),
            (3, "ready", "a/1", 0),
        ]

    def test_heap_pushes_per_release_are_pinned(self):
        """12 tasks (one split) under FP-TS on 4 cores: the run takes 491
        kernel ops for 81 releases, but only 438 heap entries (726 when
        every op was its own heap entry)."""
        from repro.experiments.algorithms import build_assignment
        from repro.metrics.registry import MetricsRegistry
        from repro.model.generator import TaskSetGenerator

        taskset = TaskSetGenerator(
            n_tasks=12, seed=3, period_min=10 * MS, period_max=100 * MS
        ).generate(0.9 * 4)
        model = OverheadModel.paper_core_i7(3)
        assignment = build_assignment("FP-TS", taskset, 4, model)
        assert assignment is not None and len(assignment.split_tasks) == 1
        metrics = MetricsRegistry()
        sim = KernelSim(assignment, model, 200 * MS, metrics=metrics)
        result = sim.run()
        assert result.releases == 81
        assert result.migrations == 10
        assert metrics.sum_of("sim_kernel_ops_total") == 491
        assert sim.queue._seq == 438
