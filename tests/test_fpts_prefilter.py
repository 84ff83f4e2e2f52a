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

import numpy as np
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
from repro.overhead.accounting import inflate_taskset, per_job_overhead
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


def test_criteria_unit_runs_the_split_search_on_ffd_rejects_only(monkeypatch):
    from repro.engine.units import CriteriaUnit, execute_unit

    unit = CriteriaUnit(
        n_cores=4,
        n_tasks=12,
        sets_per_point=20,
        utilization=0.95,
        seed=3,
        algorithms=("FP-TS", "FFD", "WFD"),
        overheads=OverheadModel.paper_core_i7(3),
        sim_sets=1,
    )
    tasksets = TaskSetGenerator(n_tasks=12, seed=3).generate_many(
        0.95 * 4, 20
    )
    ffd = [accept("FFD", ts, 4, unit.overheads) for ts in tasksets]
    fpts = [accept("FP-TS", ts, 4, unit.overheads) for ts in tasksets]
    calls = []
    fpts_partition = algorithms_mod.fpts_partition

    def counting(taskset, *args, **kwargs):
        calls.append(_periods(taskset))
        return fpts_partition(taskset, *args, **kwargs)

    monkeypatch.setattr(algorithms_mod, "fpts_partition", counting)
    payload = execute_unit(unit)
    assert calls == [
        _periods(ts) for ts, ok in zip(tasksets, ffd) if not ok
    ]
    assert len(calls) == 9  # of 20 sets; one call per set before reuse
    assert payload["accepted"]["FFD"] == sum(ffd)
    assert payload["accepted"]["FP-TS"] == sum(fpts)


def _lane_fields(taskset):
    return [
        (t.name, t.wcet, t.period, t.deadline, t.priority, t.wss)
        for t in taskset
    ]


def _population_with_clamped_lanes(clamped: int):
    """Generated lanes plus ``clamped`` copies whose highest-priority task
    has C = D - 1, so any positive per-job charge overshoots its deadline
    and inflation clamps it to C' = D."""
    batch = TaskSetGenerator(n_tasks=12, seed=41).generate_batch(0.8 * 4, 24)
    wcet = np.concatenate([batch.wcet, batch.wcet[:clamped]])
    wcet[-clamped:, 0] = batch.deadline[:clamped, 0] - 1
    return TaskSetPopulation.from_arrays(
        wcet,
        np.concatenate([batch.period, batch.period[:clamped]]),
        np.concatenate([batch.deadline, batch.deadline[:clamped]]),
        np.concatenate([batch.wss, batch.wss[:clamped]]),
        batch.names + batch.names[:clamped],
    )


@pytest.mark.parametrize("model_name", ["zero", "paper"])
def test_array_built_fpts_lanes_equal_the_inflated_scalar_lanes(
    model_name, monkeypatch
):
    """FFD's rejects reach the split search as task sets built already
    inflated from the population's arrays: task for task equal to
    ``inflate_taskset`` of the plain lane (clamped lanes included), with
    the same split-search inputs and verdicts as scalar ``accept`` and no
    ``inflate_taskset`` call."""
    clamped = 6
    population = _population_with_clamped_lanes(clamped)
    model = (
        OverheadModel.zero() if model_name == "zero"
        else OverheadModel.paper_core_i7(3)
    )
    inflated = population.inflated_wcet(model)
    plain = population.tasksets()
    for row, taskset in enumerate(plain):
        assert _lane_fields(population.taskset(row, inflated)) == (
            _lane_fields(inflate_taskset(taskset, model))
        )
    if model_name == "paper":
        for row in range(population.n_sets - clamped, population.n_sets):
            charge = per_job_overhead(model, int(population.wss[row].max()))
            deadline = population.deadline[row, 0]
            assert population.wcet[row, 0] + charge > deadline
            assert inflated[row, 0] == deadline
    ffd = accept_population("FFD", population, 4, model)
    rejected = [row for row, ok in enumerate(ffd) if not ok]
    assert any(row >= population.n_sets - clamped for row in rejected)

    calls = []
    fpts_partition = algorithms_mod.fpts_partition

    def recording(taskset, n_cores, config):
        calls.append((_lane_fields(taskset), n_cores, config))
        return fpts_partition(taskset, n_cores, config)

    monkeypatch.setattr(algorithms_mod, "fpts_partition", recording)
    scalar = [accept("FP-TS", ts, 4, model) for ts in plain]
    assert len(calls) == population.n_sets
    scalar_calls = [calls[row] for row in rejected]
    calls.clear()

    def no_inflation(*args, **kwargs):
        raise AssertionError("FP-TS lanes must come from the arrays")

    monkeypatch.setattr(algorithms_mod, "inflate_taskset", no_inflation)
    verdicts = accept_populations(["FP-TS"], population, 4, model)
    assert verdicts["FP-TS"] == scalar
    # The split search sees the same inflated set and config either way.
    assert calls == scalar_calls
