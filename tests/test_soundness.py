"""The central soundness property of the whole pipeline (experiment E6):

    analysis accepts  ==>  the simulated schedule meets every deadline.

Checked across random task sets, with and without overheads, for the
partitioned and semi-partitioned algorithms, including trace invariants.
These are the most important tests in the suite: they tie the analysis,
the partitioners and the kernel simulator together.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.validate import validate_by_simulation
from repro.kernel.sim import KernelSim
from repro.model.generator import TaskSetGenerator
from repro.model.time import MS, SEC
from repro.overhead.model import OverheadModel
from repro.partition.heuristics import partition_first_fit_decreasing
from repro.semipart.fpts import fpts_partition
from repro.semipart.spa import spa2_partition
from repro.trace.validate import validate_trace


def _simulate(assignment, model, horizon):
    sim = KernelSim(assignment, model, duration=horizon, record_trace=True)
    return sim.run()


@st.composite
def _workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    normalized = draw(st.floats(min_value=0.4, max_value=0.95))
    return seed, normalized


class TestZeroOverheadSoundness:
    """With zero overheads the simulator must agree exactly with RTA."""

    @given(workload=_workload())
    @settings(max_examples=25, deadline=None)
    def test_fpts_accepted_sets_meet_deadlines(self, workload):
        seed, normalized = workload
        generator = TaskSetGenerator(
            n_tasks=8, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(normalized * 2)
        assignment = fpts_partition(ts, 2)
        if assignment is None:
            return
        horizon = 10 * max(task.period for task in ts)
        result = _simulate(assignment, OverheadModel.zero(), horizon)
        assert result.miss_count == 0, result.misses[:3]
        assert validate_trace(result.trace, assignment) == []

    @given(workload=_workload())
    @settings(max_examples=20, deadline=None)
    def test_ffd_accepted_sets_meet_deadlines(self, workload):
        seed, normalized = workload
        generator = TaskSetGenerator(
            n_tasks=6, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(normalized * 2)
        assignment = partition_first_fit_decreasing(ts, 2)
        if assignment is None:
            return
        horizon = 10 * max(task.period for task in ts)
        result = _simulate(assignment, OverheadModel.zero(), horizon)
        assert result.miss_count == 0

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_spa2_accepted_sets_meet_deadlines(self, seed):
        generator = TaskSetGenerator(
            n_tasks=8, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(1.3)  # within 2 * Theta(8) = 1.45
        assignment = spa2_partition(ts, 2)
        if assignment is None:
            return
        horizon = 10 * max(task.period for task in ts)
        result = _simulate(assignment, OverheadModel.zero(), horizon)
        assert result.miss_count == 0, result.misses[:3]

    @given(workload=_workload())
    @settings(max_examples=15, deadline=None)
    def test_simulated_response_within_rta_bound(self, workload):
        """Per-task simulated max response <= the analysis bound."""
        from repro.analysis.rta import core_schedulable

        seed, normalized = workload
        generator = TaskSetGenerator(
            n_tasks=6, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(normalized * 2)
        assignment = partition_first_fit_decreasing(ts, 2)
        if assignment is None:
            return
        bounds = {}
        for core in assignment.cores:
            analysis = core_schedulable(core.entries)
            for entry_result in analysis.results:
                bounds[entry_result.entry.task.name] = entry_result.response
        horizon = 20 * max(task.period for task in ts)
        result = _simulate(assignment, OverheadModel.zero(), horizon)
        for name, stats in result.task_stats.items():
            if stats.jobs_completed:
                assert stats.max_response <= bounds[name], name


class TestOverheadAwareSoundness:
    """Overhead-aware analysis acceptance => simulation *with* overheads
    meets deadlines (the paper's implicit claim, experiment E6)."""

    def test_validation_campaign_is_sound(self):
        report = validate_by_simulation(
            algorithm="FP-TS",
            n_cores=2,
            n_tasks=6,
            normalized_utilization=0.8,
            sets=6,
            seed=42,
        )
        assert report.sets_simulated > 0
        assert report.sound, report.details

    def test_validation_campaign_ffd(self):
        report = validate_by_simulation(
            algorithm="FFD",
            n_cores=2,
            n_tasks=6,
            normalized_utilization=0.75,
            sets=6,
            seed=43,
        )
        assert report.sets_simulated > 0
        assert report.sound, report.details

    def test_report_table(self):
        report = validate_by_simulation(
            algorithm="FFD",
            n_cores=2,
            n_tasks=4,
            normalized_utilization=0.5,
            sets=2,
            seed=1,
        )
        assert "sound=True" in report.as_table()


class TestValidationSchedulingClass:
    """``validate_by_simulation`` runs each algorithm under its own class."""

    @staticmethod
    def _record_runs(monkeypatch):
        import repro.experiments.validate as validate_mod

        runs = []

        class RecordingSim(KernelSim):
            def __init__(self, assignment, *args, **kwargs):
                super().__init__(assignment, *args, **kwargs)
                runs.append((kwargs.get("sched_class"), assignment))

        monkeypatch.setattr(validate_mod, "KernelSim", RecordingSim)
        return runs

    def test_cd_split_runs_under_edf(self, monkeypatch):
        runs = self._record_runs(monkeypatch)
        report = validate_by_simulation(
            algorithm="C=D",
            n_cores=2,
            n_tasks=6,
            normalized_utilization=0.8,
            sets=4,
            seed=5,
            horizon=1 * SEC,
        )
        assert report.sets_simulated == len(runs) > 0
        assert {sched_class for sched_class, _ in runs} == {"edf"}
        assert report.sound, report.details

    def test_global_edf_simulates_the_shared_queue_assignment(
        self, monkeypatch
    ):
        runs = self._record_runs(monkeypatch)
        report = validate_by_simulation(
            algorithm="G-EDF",
            n_cores=4,
            n_tasks=12,
            normalized_utilization=0.2,
            sets=3,
            seed=3,
            horizon=1 * SEC,
        )
        assert report.sets_simulated == len(runs) > 0
        for sched_class, assignment in runs:
            assert sched_class == "global-edf"
            assert len(list(assignment.entries())) == 12
        assert report.sound, report.details
