"""Tests for the FP-TS semi-partitioned algorithm."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rta import assignment_schedulable, core_schedulable
from repro.model.assignment import EntryKind
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.partition.heuristics import partition_first_fit_decreasing
from repro.semipart.fpts import FptsConfig, fpts_partition


def _ts(*specs):
    return TaskSet(
        [Task(f"t{i}", wcet=c, period=p) for i, (c, p) in enumerate(specs)]
    ).assign_rate_monotonic()


class TestWholePlacement:
    def test_requires_priorities(self):
        ts = TaskSet([Task("a", wcet=1, period=10)])
        with pytest.raises(ValueError):
            fpts_partition(ts, 2)

    def test_no_split_when_partitionable(self):
        ts = _ts((3, 10), (4, 20), (5, 40))
        assignment = fpts_partition(ts, 2)
        assert assignment is not None
        assert assignment.n_split_tasks == 0

    def test_empty_taskset(self):
        assignment = fpts_partition(TaskSet(), 2)
        assert assignment is not None


class TestSplitting:
    def test_splits_three_heavy_on_two_cores(self):
        """The canonical case partitioning cannot solve."""
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assert partition_first_fit_decreasing(ts, 2) is None
        assignment = fpts_partition(ts, 2)
        assert assignment is not None
        assert assignment.n_split_tasks == 1
        assignment.validate()
        assert assignment_schedulable(assignment)

    def test_split_budgets_sum_to_wcet(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = fpts_partition(ts, 2)
        split = next(iter(assignment.split_tasks.values()))
        assert sum(s.budget for s in split.subtasks) == 6 * MS

    def test_body_gets_top_priority(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = fpts_partition(ts, 2)
        for entry in assignment.entries():
            if entry.kind == EntryKind.BODY:
                assert entry.local_priority == 0

    def test_tail_deadline_shrunk_by_body_bound(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = fpts_partition(ts, 2)
        tails = [
            e for e in assignment.entries() if e.kind == EntryKind.TAIL
        ]
        assert len(tails) == 1
        tail = tails[0]
        assert tail.deadline < tail.task.deadline
        assert tail.jitter == tail.task.deadline - tail.deadline

    def test_four_heavy_on_three_cores(self):
        ts = _ts(
            (6 * MS, 10 * MS),
            (6 * MS, 10 * MS),
            (6 * MS, 10 * MS),
            (6 * MS, 10 * MS),
        )
        assert partition_first_fit_decreasing(ts, 3) is None
        assignment = fpts_partition(ts, 3)
        assert assignment is not None
        assert assignment_schedulable(assignment)
        assert assignment.n_split_tasks >= 1

    def test_infeasible_overload_rejected(self):
        # Total utilization 2.4 on 2 cores: impossible.
        ts = _ts((8, 10), (8, 10), (8, 10))
        assert fpts_partition(ts, 2) is None

    def test_utilization_one_per_core_bound(self):
        # U exactly 2.0 on 2 cores with same periods: splitting fits
        # exactly (zero slack) thanks to top-priority bodies.
        ts = _ts((10, 20), (20, 40), (50, 100), (20, 25))
        assignment = fpts_partition(ts, 2, FptsConfig(min_chunk=1))
        if assignment is not None:
            assert assignment_schedulable(assignment)

    def test_min_chunk_respected(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        config = FptsConfig(min_chunk=100_000)  # 100 us
        assignment = fpts_partition(ts, 2, config)
        assert assignment is not None
        for split in assignment.split_tasks.values():
            for sub in split.subtasks[:-1]:
                assert sub.budget >= config.min_chunk

    def test_split_cost_reduces_capacity(self):
        """A large analysis-side migration charge must make acceptance
        strictly harder."""
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (5 * MS, 10 * MS))
        free = fpts_partition(ts, 2, FptsConfig(split_cost=0))
        assert free is not None
        assert free.n_split_tasks == 1
        # A 3 ms charge per migration leaves no feasible split of the
        # remaining 5 ms task (tail chunk + charge exceeds every gap).
        expensive = fpts_partition(ts, 2, FptsConfig(split_cost=3 * MS))
        assert expensive is None

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FptsConfig(split_cost=-1)
        with pytest.raises(ValueError):
            FptsConfig(min_chunk=0)


class TestEarlyUtilizationReject:
    """Sets with U > m are rejected before any probe; U == m is not."""

    def test_overloaded_set_rejected_without_probes(self):
        from repro.analysis import STATS

        ts = _ts((6, 10), (6, 10), (6, 10), (6, 10))  # U = 2.4 on 2
        before = STATS.probes
        assert fpts_partition(ts, 2) is None
        assert STATS.probes == before

    def test_utilization_exactly_m_still_accepted(self):
        ts = _ts((5, 10), (5, 10), (5, 10), (5, 10))  # U = 2.0 on 2
        assignment = fpts_partition(ts, 2)
        assert assignment is not None
        assert assignment_schedulable(assignment)


class TestDominance:
    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_accepts_everything_ffd_accepts(self, seed):
        """FP-TS tries whole-task first-fit first, so it dominates FFD."""
        generator = TaskSetGenerator(n_tasks=8, seed=seed)
        rng = random.Random(seed)
        utilization = rng.uniform(1.5, 3.6)
        ts = generator.generate(utilization)
        if partition_first_fit_decreasing(ts, 4) is not None:
            assert fpts_partition(ts, 4) is not None

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_accepted_assignments_pass_exact_rta(self, seed):
        generator = TaskSetGenerator(n_tasks=10, seed=seed)
        ts = generator.generate(3.4)
        assignment = fpts_partition(ts, 4)
        if assignment is not None:
            assignment.validate()
            assert assignment_schedulable(assignment)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_split_structure_is_consistent(self, seed):
        generator = TaskSetGenerator(n_tasks=9, seed=seed)
        ts = generator.generate(3.7)
        assignment = fpts_partition(ts, 4)
        if assignment is None:
            return
        for split in assignment.split_tasks.values():
            # Subtasks on distinct cores, budgets positive, tail last.
            cores = [s.core for s in split.subtasks]
            assert len(set(cores)) == len(cores)
            assert all(s.budget > 0 for s in split.subtasks)
            assert split.subtasks[-1].is_tail


class TestBodyResponseStability:
    def test_later_additions_do_not_break_earlier_bodies(self):
        """A body's recorded deadline equals its verified response bound;
        re-running full-core RTA after all placements must still pass."""
        ts = _ts(
            (6 * MS, 10 * MS),
            (6 * MS, 10 * MS),
            (6 * MS, 10 * MS),
            (1 * MS, 20 * MS),
            (1 * MS, 40 * MS),
        )
        assignment = fpts_partition(ts, 2)
        assert assignment is not None
        for core in assignment.cores:
            analysis = core_schedulable(core.entries)
            assert analysis.schedulable
            for result in analysis.results:
                if result.entry.kind == EntryKind.BODY:
                    # Response bound recorded at split time still holds.
                    assert result.response <= result.entry.deadline
