"""Tests for PDMS_HPTS (highest-priority task splitting)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rta import assignment_schedulable
from repro.kernel.sim import KernelSim
from repro.model.assignment import EntryKind
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.partition.heuristics import partition_first_fit_decreasing
from repro.semipart.pdms import PdmsConfig, pdms_hpts_partition
from repro.trace.validate import validate_trace


def _ts(*specs):
    return TaskSet(
        [Task(f"t{i}", wcet=c, period=p) for i, (c, p) in enumerate(specs)]
    ).assign_rate_monotonic()


class TestBasics:
    def test_requires_priorities(self):
        with pytest.raises(ValueError):
            pdms_hpts_partition(TaskSet([Task("a", wcet=1, period=10)]), 2)

    def test_empty(self):
        assert pdms_hpts_partition(TaskSet(), 2) is not None

    def test_no_split_when_partitionable(self):
        ts = _ts((3, 10), (4, 20))
        assignment = pdms_hpts_partition(ts, 2)
        assert assignment is not None
        assert assignment.n_split_tasks == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PdmsConfig(split_cost=-1)
        with pytest.raises(ValueError):
            PdmsConfig(min_chunk=0)

    def test_overload_rejected(self):
        ts = _ts((8, 10), (8, 10), (8, 10))
        assert pdms_hpts_partition(ts, 2) is None


class TestEarlyUtilizationReject:
    """Sets with U > m are rejected before any probe; U == m is not."""

    def test_overloaded_set_rejected_without_probes(self):
        from repro.analysis import STATS

        ts = _ts((6, 10), (6, 10), (6, 10), (6, 10))  # U = 2.4 on 2
        before = STATS.probes
        assert pdms_hpts_partition(ts, 2, PdmsConfig(min_chunk=1)) is None
        assert STATS.probes == before

    def test_utilization_exactly_m_still_searched(self):
        from repro.analysis import STATS

        ts = _ts((5, 10), (5, 10), (5, 10), (5, 10))  # U = 2.0 on 2
        before = STATS.probes
        assignment = pdms_hpts_partition(ts, 2, PdmsConfig(min_chunk=1))
        assert STATS.probes > before
        assert assignment is not None
        assert assignment_schedulable(assignment)


class TestSplitting:
    def test_splits_three_heavy_on_two_cores(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assert partition_first_fit_decreasing(ts, 2) is None
        assignment = pdms_hpts_partition(ts, 2)
        assert assignment is not None
        assert assignment.n_split_tasks == 1
        assert assignment_schedulable(assignment)

    def test_splits_the_resident_not_the_newcomer(self):
        """PDMS's signature move, contrasted with FP-TS on the same set:
        when the third equal task overflows the platform, FP-TS splits the
        *overflowing* task while PDMS splits the processor's *resident*
        highest-priority task and keeps the newcomer whole."""
        from repro.semipart.fpts import fpts_partition

        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        # Placement order is t2, t1, t0 (utilization ties broken by name,
        # descending), so the overflowing task is t0.
        fpts = fpts_partition(ts, 2)
        pdms = pdms_hpts_partition(ts, 2)
        assert set(fpts.split_tasks) == {"t0"}  # the newcomer
        assert set(pdms.split_tasks) == {"t2"}  # the first resident

    def test_body_top_priority_and_zero_jitter(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = pdms_hpts_partition(ts, 2)
        bodies = [e for e in assignment.entries() if e.kind == EntryKind.BODY]
        assert bodies
        for body in bodies:
            assert body.local_priority == 0
            assert body.jitter == 0  # body is always subtask #0 in PDMS

    def test_split_cost_respected(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (5 * MS, 10 * MS))
        free = pdms_hpts_partition(ts, 2, PdmsConfig())
        assert free is not None
        expensive = pdms_hpts_partition(
            ts, 2, PdmsConfig(split_cost=3 * MS, split_cost_out=1 * MS)
        )
        # With huge charges the split no longer fits.
        assert expensive is None


class TestDominanceAndSoundness:
    @given(seed=st.integers(min_value=0, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_accepts_everything_ffd_accepts(self, seed):
        generator = TaskSetGenerator(n_tasks=8, seed=seed)
        ts = generator.generate(3.3)
        if partition_first_fit_decreasing(ts, 4) is not None:
            assert pdms_hpts_partition(ts, 4) is not None

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_accepted_assignments_pass_rta_and_simulate(self, seed):
        generator = TaskSetGenerator(
            n_tasks=7, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(1.75)
        assignment = pdms_hpts_partition(ts, 2)
        if assignment is None:
            return
        assignment.validate()
        assert assignment_schedulable(assignment)
        horizon = 8 * max(task.period for task in ts)
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=horizon,
            record_trace=True,
        ).run()
        assert result.miss_count == 0, result.misses[:3]
        assert validate_trace(result.trace, assignment) == []
