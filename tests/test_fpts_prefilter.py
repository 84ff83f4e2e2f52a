"""FP-TS's whole-task phase is FFD, so the batch FFD row prefilters it.

:func:`repro.experiments.algorithms.accept_populations` answers every
lane the batch FFD pass accepts as an FP-TS accept and runs the scalar
split search only on the rejected lanes.  That is exact because
``fpts_partition`` places tasks whole with the same inflation, the same
decreasing-(utilization, name) order and the same first-fit RTA probes
as ``partition_first_fit_decreasing`` until it first has to split.
These tests pin the argument itself (identical assignments whenever FFD
accepts) and the verdict contract of the wrappers built on it.
"""

from __future__ import annotations

import pytest

import repro.experiments.algorithms as algorithms_mod
from repro.analysis.batch import TaskSetPopulation
from repro.experiments.algorithms import (
    accept,
    accept_population,
    accept_populations,
    build_assignment,
)
from repro.model.generator import TaskSetGenerator
from repro.model.time import MS
from repro.overhead.model import OverheadModel

UTILIZATIONS = (0.7, 0.8, 0.9, 0.95, 1.0)


def _tasksets(n_cores: int, seed: int, count: int = 8):
    generator = TaskSetGenerator(
        n_tasks=3 * n_cores,
        seed=seed,
        period_min=10 * MS,
        period_max=100 * MS,
    )
    return [
        ts
        for u in UTILIZATIONS
        for ts in generator.generate_many(u * n_cores, count)
    ]


def _models(n_cores: int):
    return (OverheadModel.zero(), OverheadModel.paper_core_i7(n_cores))


def _periods(taskset):
    # Inflation changes WCETs, never periods: a lane's fingerprint.
    return sorted((task.name, task.period) for task in taskset)


def _entries(assignment):
    return sorted(
        (e.task.name, e.core, e.budget, e.local_priority)
        for e in assignment.entries()
    )


@pytest.mark.parametrize("n_cores", [2, 4])
def test_fpts_equals_ffd_whenever_ffd_accepts(n_cores):
    ffd_accepts = fpts_splits = 0
    for model in _models(n_cores):
        for taskset in _tasksets(n_cores, seed=100 + n_cores):
            ffd = build_assignment("FFD", taskset, n_cores, model)
            fpts = build_assignment("FP-TS", taskset, n_cores, model)
            if ffd is None:
                fpts_splits += fpts is not None
                continue
            ffd_accepts += 1
            assert fpts is not None and fpts.n_split_tasks == 0
            assert _entries(fpts) == _entries(ffd)
    # The grid straddles FFD's boundary: both branches are exercised.
    assert ffd_accepts > 0 and fpts_splits > 0


@pytest.mark.parametrize(
    "algorithms",
    [["FP-TS"], ["FP-TS", "WFD"], ["FP-TS", "FFD", "WFD"]],
    ids=["fpts", "fpts-wfd", "fpts-ffd-wfd"],
)
@pytest.mark.parametrize("n_cores", [2, 4])
def test_accept_populations_equals_scalar_accept(algorithms, n_cores):
    tasksets = _tasksets(n_cores, seed=200 + n_cores, count=6)
    population = TaskSetPopulation.from_tasksets(tasksets)
    for model in _models(n_cores):
        verdicts = accept_populations(algorithms, population, n_cores, model)
        assert list(verdicts) == algorithms
        for algorithm in algorithms:
            assert verdicts[algorithm] == [
                accept(algorithm, ts, n_cores, model) for ts in tasksets
            ], algorithm


def test_only_ffd_rejected_lanes_reach_the_split_search(monkeypatch):
    tasksets = _tasksets(4, seed=301, count=6)
    population = TaskSetPopulation.from_tasksets(tasksets)
    model = OverheadModel.paper_core_i7(4)
    ffd = accept_population("FFD", population, 4, model)
    assert any(ffd) and not all(ffd)
    calls = []
    fpts_partition = algorithms_mod.fpts_partition

    def counting(taskset, *args, **kwargs):
        calls.append(_periods(taskset))
        return fpts_partition(taskset, *args, **kwargs)

    monkeypatch.setattr(algorithms_mod, "fpts_partition", counting)
    accept_population("FP-TS", population, 4, model)
    assert calls == [
        _periods(ts)
        for ts, ok in zip(tasksets, ffd)
        if not ok
    ]
