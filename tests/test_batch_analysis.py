"""Differential properties of the struct-of-arrays batch analysis kernel.

The batch layer (:mod:`repro.analysis.batch`) promises **bit-identical**
verdicts to the scalar pipeline it vectorizes, so every test here is a
differential one:

* the packed accept/reject verdicts of every batchable algorithm must
  equal scalar :func:`repro.experiments.algorithms.accept` lane by lane,
  across a seeded grid of utilizations and overhead models (this covers
  the decide-mode fixed-point shortcuts: the prefix-point prepass and
  the pinned-at-cap fail-fast both bank rows early, and any unsoundness
  shows up as a flipped verdict);
* :func:`batch_rta_responses` must reproduce the exact integers of the
  scalar :func:`repro.analysis.rta.response_time` fixed point, including
  the ``-1`` deadline-miss sentinel and ``0`` padding positions;
* populations the batch layer cannot express — non-rate-monotonic lane
  order, timing values at or above the float64-exact 2**52 range —
  must raise :class:`PopulationError`, and the wrappers must fall back
  to the scalar path with the fallback counted;
* degenerate shapes (empty population, single lane, mixed trivially-
  convergent and overloaded lanes in one population) keep their shape
  contracts and verdict agreement;
* the packing pass's placements equal the scalar assignments' where no
  whole-set screen applies, as with fewer tasks than cores (the
  ``batch-vs-scalar`` differential pair checks placements, core loads
  and first misfits on every lane).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.batch import (
    BatchStats,
    PopulationError,
    TaskSetPopulation,
    batch_partition_accept,
    batch_partition_accept_multi,
    batch_rta_responses,
)
from repro.analysis.rta import response_time
from repro.experiments.algorithms import (
    BATCH_ALGORITHMS,
    accept,
    accept_population,
    accept_populations,
    build_assignment,
)
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel

FUZZ_TRIALS = max(20, int(os.environ.get("REPRO_FUZZ_TRIALS", "30")))

MODELS = (
    OverheadModel.zero(),
    OverheadModel(
        release_ns=2000,
        sch_ns=3000,
        cnt_swth_ns=4000,
        ready_op_ns=500,
        sleep_op_ns=500,
    ),
)

N_CORES = 4
UTILIZATIONS = (0.45, 0.65, 0.85, 1.02)


def _population(seed: int, utilization: float, count: int = 6):
    generator = TaskSetGenerator(
        n_tasks=10,
        seed=seed,
        period_min=10 * MS,
        period_max=1000 * MS,
    )
    generated = generator.generate_batch(utilization * N_CORES, count)
    population = TaskSetPopulation.from_arrays(
        generated.wcet,
        generated.period,
        generated.deadline,
        generated.wss,
        generated.names,
    )
    return population, generated.tasksets()


# ---------------------------------------------------------------------------
# Batch accept vs the scalar pipeline, lane by lane
# ---------------------------------------------------------------------------


@pytest.mark.fuzz
def test_batch_accept_matches_scalar_across_seeds():
    """Every batchable algorithm, two overhead models, a seeded
    utilization grid: the one-pass multi-config verdict matrix must equal
    per-lane scalar ``accept`` exactly."""
    algorithms = sorted(BATCH_ALGORITHMS)
    for trial in range(FUZZ_TRIALS):
        utilization = UTILIZATIONS[trial % len(UTILIZATIONS)]
        population, tasksets = _population(1000 + trial, utilization)
        for model in MODELS:
            verdicts = accept_populations(
                algorithms, population, N_CORES, model
            )
            for algorithm in algorithms:
                expected = [
                    accept(algorithm, taskset, N_CORES, model)
                    for taskset in tasksets
                ]
                assert verdicts[algorithm] == expected, (
                    f"trial {trial} u={utilization} {algorithm}: "
                    f"batch {verdicts[algorithm]} != scalar {expected}"
                )


def test_packing_warm_starts_are_lower_bounds(monkeypatch):
    """Every probe's warm start (cached committed responses, prefix sums)
    must stay at or below the least fixed point it starts from: the
    decide-mode fixed point is exact only from below.  Checked against
    a cold iteration from the budgets on every probe of a packing pass
    that commits into the response cache many times."""
    import repro.analysis.batch as batch_mod

    fixed_point = batch_mod._fixed_point
    checked = []

    def checking(budget, coef, period, add, cap, start, source_cost,
                 stats, decide=False):
        exact = fixed_point(
            budget, coef, period, add, cap, budget, source_cost,
            BatchStats(),
        )
        below = exact < cap
        assert np.all(start[below] <= exact[below])
        checked.append(int(below.sum()))
        return fixed_point(
            budget, coef, period, add, cap, start, source_cost, stats,
            decide,
        )

    monkeypatch.setattr(batch_mod, "_fixed_point", checking)
    for seed in range(4):
        population, _ = _population(40 + seed, 0.9, count=40)
        batch_partition_accept_multi(
            population,
            N_CORES,
            model=MODELS[1],
            configs=[BATCH_ALGORITHMS[a] for a in sorted(BATCH_ALGORITHMS)],
        )
    assert sum(checked) > 1000


def test_single_config_wrappers_agree_with_multi():
    population, tasksets = _population(7, 0.85)
    model = MODELS[1]
    matrix = batch_partition_accept_multi(
        population,
        N_CORES,
        model=model,
        configs=[BATCH_ALGORITHMS[a] for a in sorted(BATCH_ALGORITHMS)],
    ).verdict
    for row, algorithm in zip(matrix, sorted(BATCH_ALGORITHMS)):
        placement, admission = BATCH_ALGORITHMS[algorithm]
        single = batch_partition_accept(
            population,
            N_CORES,
            model=model,
            placement=placement,
            admission=admission,
        )
        assert np.array_equal(row, single)
        assert accept_population(
            algorithm, population, N_CORES, model
        ) == [bool(v) for v in single]


def test_mixed_convergence_population():
    """One population mixing lanes that converge instantly (tiny load),
    lanes near the acceptance boundary, and overloaded lanes — the
    banking/compression machinery must not cross-contaminate rows."""
    parts = [_population(31 + i, u, count=4) for i, u in
             enumerate((0.15, 0.95, 1.30))]
    population = TaskSetPopulation.from_arrays(
        np.concatenate([p.wcet for p, _ in parts]),
        np.concatenate([p.period for p, _ in parts]),
        np.concatenate([p.deadline for p, _ in parts]),
        np.concatenate([p.wss for p, _ in parts]),
        [lane for p, _ in parts for lane in p.names],
    )
    tasksets = [ts for _, sets in parts for ts in sets]
    for algorithm in sorted(BATCH_ALGORITHMS):
        got = accept_population(algorithm, population, N_CORES, MODELS[0])
        expected = [
            accept(algorithm, ts, N_CORES, MODELS[0]) for ts in tasksets
        ]
        assert got == expected
    # Sanity: the mix really exercises both outcomes.
    ffd = accept_population("FFD", population, N_CORES, MODELS[0])
    assert any(ffd) and not all(ffd)


# ---------------------------------------------------------------------------
# batch_rta_responses vs the scalar fixed point
# ---------------------------------------------------------------------------


def _scalar_responses(wcet, period, deadline, jitter):
    lanes, positions = wcet.shape
    out = np.zeros((lanes, positions), dtype=np.int64)
    for lane in range(lanes):
        for pos in range(positions):
            if wcet[lane, pos] == 0:
                continue
            higher = [
                (
                    int(wcet[lane, q]),
                    int(period[lane, q]),
                    int(jitter[lane, q]) if jitter is not None else 0,
                )
                for q in range(pos)
                if wcet[lane, q] > 0
            ]
            r = response_time(
                int(wcet[lane, pos]), higher, int(deadline[lane, pos])
            )
            out[lane, pos] = -1 if r is None else r
    return out


@pytest.mark.fuzz
@pytest.mark.parametrize("with_jitter", [False, True])
def test_batch_rta_responses_match_scalar(with_jitter):
    rng = np.random.default_rng(20110 + int(with_jitter))
    for _trial in range(FUZZ_TRIALS):
        lanes, positions = 6, 5
        period = rng.integers(10, 1000, size=(lanes, positions))
        wcet = rng.integers(1, np.maximum(period // 2, 2))
        # Constrained deadlines; a few positions deliberately get a
        # deadline below their own WCET (certain miss) and a few become
        # zero-WCET padding.
        deadline = rng.integers(np.maximum(wcet, 1), period + 1)
        tight = rng.random((lanes, positions)) < 0.1
        deadline = np.where(tight, np.maximum(wcet - 1, 1), deadline)
        wcet[rng.random((lanes, positions)) < 0.15] = 0
        jitter = (
            rng.integers(0, 50, size=(lanes, positions))
            if with_jitter
            else None
        )
        got = batch_rta_responses(wcet, period, deadline, jitter=jitter)
        expected = _scalar_responses(wcet, period, deadline, jitter)
        assert np.array_equal(got, expected)


def test_batch_rta_responses_empty_and_padding_shapes():
    empty = np.zeros((0, 4), dtype=np.int64)
    assert batch_rta_responses(empty, empty, empty).shape == (0, 4)
    # All-padding lane: every response is the 0 sentinel.
    wcet = np.zeros((2, 3), dtype=np.int64)
    period = np.zeros((2, 3), dtype=np.int64)
    deadline = np.zeros((2, 3), dtype=np.int64)
    assert np.array_equal(
        batch_rta_responses(wcet, period, deadline), np.zeros((2, 3))
    )


# ---------------------------------------------------------------------------
# Inexpressible populations: PopulationError and the scalar fallback
# ---------------------------------------------------------------------------


def _non_rm_population():
    """Priority rank order deliberately not period-monotone."""
    tasks = [
        Task(name="a", wcet=2 * MS, period=100 * MS, deadline=100 * MS),
        Task(name="b", wcet=1 * MS, period=50 * MS, deadline=50 * MS),
    ]
    taskset = TaskSet(
        [task.with_priority(rank) for rank, task in enumerate(tasks)]
    )
    return TaskSetPopulation.from_tasksets([taskset]), [taskset]


def test_non_rm_order_raises_population_error():
    population, _ = _non_rm_population()
    with pytest.raises(PopulationError):
        batch_partition_accept(population, N_CORES)


def test_non_rm_order_falls_back_to_scalar_with_counter():
    population, tasksets = _non_rm_population()
    stats = BatchStats()
    got = accept_population(
        "FFD", population, N_CORES, MODELS[0], stats=stats
    )
    assert got == [accept("FFD", ts, N_CORES, MODELS[0]) for ts in tasksets]
    assert stats.scalar_fallbacks == population.n_sets
    # The multi-algorithm wrapper counts one fallback per (alg, lane).
    stats = BatchStats()
    multi = accept_populations(
        ["FFD", "P-EDF"], population, N_CORES, MODELS[0], stats=stats
    )
    assert multi["FFD"] == got
    assert stats.scalar_fallbacks == 2 * population.n_sets


def test_out_of_float64_range_raises_population_error():
    huge = 1 << 52
    period = np.full((1, 2), huge, dtype=np.int64)
    population = TaskSetPopulation.from_arrays(
        wcet=np.full((1, 2), 1000, dtype=np.int64),
        period=period,
        deadline=period,
        wss=np.zeros((1, 2), dtype=np.int64),
        names=[("a", "b")],
    )
    with pytest.raises(PopulationError):
        batch_partition_accept(population, N_CORES)


def test_from_tasksets_rejects_ragged_and_unprioritized():
    small = TaskSet(
        [Task(name="a", wcet=1, period=10, deadline=10).with_priority(0)]
    )
    big = TaskSet(
        [
            Task(name="b", wcet=1, period=10, deadline=10).with_priority(0),
            Task(name="c", wcet=1, period=20, deadline=20).with_priority(1),
        ]
    )
    with pytest.raises(PopulationError):
        TaskSetPopulation.from_tasksets([small, big])
    no_priority = TaskSet([Task(name="d", wcet=1, period=10, deadline=10)])
    with pytest.raises(PopulationError):
        TaskSetPopulation.from_tasksets([no_priority])


# ---------------------------------------------------------------------------
# Degenerate shapes and the wrapper contracts
# ---------------------------------------------------------------------------


def test_empty_population_shapes():
    shape = (0, 5)
    empty = TaskSetPopulation.from_arrays(
        np.zeros(shape, dtype=np.int64),
        np.zeros(shape, dtype=np.int64),
        np.zeros(shape, dtype=np.int64),
        np.zeros(shape, dtype=np.int64),
        [],
    )
    assert empty.n_sets == 0
    single = batch_partition_accept(empty, N_CORES)
    assert single.shape == (0,)
    packed = batch_partition_accept_multi(
        empty, N_CORES, configs=list(BATCH_ALGORITHMS.values())
    )
    assert packed.verdict.shape == (len(BATCH_ALGORITHMS), 0)
    assert packed.core_of.shape == (len(BATCH_ALGORITHMS), 0, 5)
    assert packed.misfit.shape == (len(BATCH_ALGORITHMS), 0)
    assert accept_population("FFD", empty, N_CORES) == []


def test_placements_with_fewer_tasks_than_cores():
    """With n <= m every heuristic accepts, but where each task goes
    still takes the admission probes (first fit moves on once core 0 is
    full), so the placements must equal the scalar assignments'."""
    generator = TaskSetGenerator(
        n_tasks=3, seed=5, period_min=10 * MS, period_max=100 * MS
    )
    tasksets = generator.generate_many(0.6 * N_CORES, 6)
    population = TaskSetPopulation.from_tasksets(tasksets)
    names = sorted(BATCH_ALGORITHMS)
    packed = batch_partition_accept_multi(
        population,
        N_CORES,
        model=MODELS[1],
        configs=[BATCH_ALGORITHMS[a] for a in names],
    )
    assert packed.verdict.all()
    assert (packed.misfit == -1).all()
    spread = set()
    for row, algorithm in enumerate(names):
        for lane, taskset in enumerate(tasksets):
            assignment = build_assignment(
                algorithm, taskset, N_CORES, MODELS[1]
            )
            cores = [
                assignment.core_of(task.name)
                for task in taskset.sorted_by_priority()
            ]
            assert packed.core_of[row, lane].tolist() == cores
            if len(set(cores)) > 1:
                spread.add(algorithm)
    assert {"FFD", "WFD", "BFD", "NFD"} <= spread


def test_single_lane_population_matches_scalar():
    population, tasksets = _population(97, 0.85, count=1)
    assert population.n_sets == 1
    for algorithm in sorted(BATCH_ALGORITHMS):
        assert accept_population(
            algorithm, population, N_CORES, MODELS[1]
        ) == [accept(algorithm, tasksets[0], N_CORES, MODELS[1])]


def test_accept_populations_mixes_batch_and_scalar_algorithms():
    population, tasksets = _population(55, 0.75)
    verdicts = accept_populations(
        ["FFD", "FP-TS"], population, N_CORES, MODELS[0]
    )
    assert verdicts["FFD"] == [
        accept("FFD", ts, N_CORES, MODELS[0]) for ts in tasksets
    ]
    assert verdicts["FP-TS"] == [
        accept("FP-TS", ts, N_CORES, MODELS[0]) for ts in tasksets
    ]
    with pytest.raises(KeyError):
        accept_populations(["FFD", "no-such-alg"], population, N_CORES)
    with pytest.raises(KeyError):
        accept_population("no-such-alg", population, N_CORES)


def test_partial_materialization_matches_full_list():
    population, _ = _population(5, 0.75, count=6)
    full = population.tasksets()
    lanes = [4, 0, 3]

    def fields(taskset):
        return [
            (t.name, t.wcet, t.period, t.deadline, t.wss, t.priority)
            for t in taskset
        ]

    assert [fields(ts) for ts in population.tasksets(lanes)] == [
        fields(full[lane]) for lane in lanes
    ]
    assert population.tasksets([]) == []


def test_population_roundtrip_tasksets():
    population, tasksets = _population(3, 0.65, count=3)
    for materialized, original in zip(population.tasksets(), tasksets):
        assert [
            (t.name, t.wcet, t.period, t.deadline, t.wss, t.priority)
            for t in materialized.sorted_by_priority()
        ] == [
            (t.name, t.wcet, t.period, t.deadline, t.wss, t.priority)
            for t in original.sorted_by_priority()
        ]
