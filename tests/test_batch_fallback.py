"""Fault-injected ``PopulationError`` → scalar fallback (satellite of the
service PR's degradation ladder).

The batch kernels already fall back organically on populations they
cannot express (see ``test_batch_analysis.py``); here the failure is
*injected* — the kernel entry points are monkeypatched to raise
:class:`PopulationError` unconditionally — so the tests pin the fallback
contract itself rather than any particular inexpressible input:

* the returned verdicts are bit-identical to the scalar path
  (``batch=False``);
* every lane handed back is counted, both in the caller-supplied
  :class:`BatchStats` tracker and in the module-global ``BATCH_STATS``
  when no tracker is passed;
* :func:`repro.metrics.report.record_batch_stats` publishes the same
  count as ``ana_batch_scalar_fallbacks_total`` — the counter the
  service's ``/metrics`` endpoint reconciles against.
"""

from __future__ import annotations

import pytest

import repro.experiments.algorithms as algorithms_mod
from repro.analysis.batch import (
    BATCH_STATS,
    BatchStats,
    PopulationError,
    TaskSetPopulation,
)
from repro.experiments.algorithms import (
    BATCH_ALGORITHMS,
    accept_population,
    accept_populations,
)
from repro.metrics.registry import MetricsRegistry
from repro.metrics.report import record_batch_stats
from repro.model.generator import TaskSetGenerator
from repro.model.time import MS
from repro.overhead.model import OverheadModel

N_CORES = 2


def _population(seed: int = 7, count: int = 5) -> TaskSetPopulation:
    generator = TaskSetGenerator(
        n_tasks=6,
        seed=seed,
        period_min=10 * MS,
        period_max=100 * MS,
    )
    tasksets = [
        generator.generate(0.7 * N_CORES) for _ in range(count)
    ]
    return TaskSetPopulation.from_tasksets(tasksets)


def _raise_population_error(*args, **kwargs):
    raise PopulationError("injected: batch kernel unavailable")


@pytest.fixture
def broken_batch(monkeypatch):
    """Make the batch kernel fail (as imported by the registry, whose
    every batched path goes through the multi-config entry point)."""
    monkeypatch.setattr(
        algorithms_mod,
        "batch_partition_accept_multi",
        _raise_population_error,
    )


class TestInjectedFallbackSingle:
    def test_verdicts_bit_identical_to_scalar(self, broken_batch):
        population = _population()
        model = OverheadModel.paper_core_i7(3)
        for algorithm in sorted(BATCH_ALGORITHMS):
            stats = BatchStats()
            fell_back = accept_population(
                algorithm,
                population,
                N_CORES,
                model=model,
                batch=True,
                stats=stats,
            )
            scalar = accept_population(
                algorithm, population, N_CORES, model=model, batch=False
            )
            assert fell_back == scalar
            assert stats.scalar_fallbacks == population.n_sets

    def test_fpts_prefilter_falls_back_bit_identical(self, broken_batch):
        """FP-TS's FFD prefilter shares the kernel call: when it fails,
        FP-TS is answered scalar and its lanes are counted like any
        batched algorithm's."""
        population = _population(seed=29, count=8)
        model = OverheadModel.paper_core_i7(N_CORES)
        for algorithms in (["FP-TS"], ["FP-TS", "FFD", "WFD"]):
            stats = BatchStats()
            fell_back = accept_populations(
                algorithms,
                population,
                N_CORES,
                model=model,
                batch=True,
                stats=stats,
            )
            scalar = accept_populations(
                algorithms, population, N_CORES, model=model, batch=False
            )
            assert fell_back == scalar
            assert (
                stats.scalar_fallbacks
                == population.n_sets * len(algorithms)
            )

    def test_fallback_counts_into_global_tracker(self, broken_batch):
        population = _population(seed=11)
        before = BATCH_STATS.scalar_fallbacks
        accept_population("FFD", population, N_CORES, batch=True)
        assert (
            BATCH_STATS.scalar_fallbacks - before == population.n_sets
        )

    def test_metrics_reconcile(self, broken_batch):
        population = _population(seed=13)
        stats = BatchStats()
        accept_population(
            "WFD", population, N_CORES, batch=True, stats=stats
        )
        registry = MetricsRegistry()
        record_batch_stats(registry, stats)
        assert (
            registry.value("ana_batch_scalar_fallbacks_total")
            == stats.scalar_fallbacks
            == population.n_sets
        )
        # Nothing reached the kernels, so no batch work was recorded.
        assert registry.value("ana_batch_lanes_total") == 0
        assert registry.value("ana_batch_vector_iterations_total") == 0


class TestInjectedFallbackMulti:
    def test_multi_falls_back_per_algorithm(self, broken_batch):
        population = _population(seed=17)
        algorithms = sorted(BATCH_ALGORITHMS)
        stats = BatchStats()
        fell_back = accept_populations(
            algorithms,
            population,
            N_CORES,
            batch=True,
            stats=stats,
        )
        scalar = accept_populations(
            algorithms, population, N_CORES, batch=False
        )
        assert fell_back == scalar
        # The multi kernel fails once for the whole batched group, then
        # each algorithm is answered by scalar accept() lane by lane
        # (which never touches the kernel again), so the count is
        # exactly lanes x batched algorithms.
        assert (
            stats.scalar_fallbacks
            == population.n_sets * len(algorithms)
        )

    def test_multi_metrics_reconcile(self, broken_batch):
        population = _population(seed=19)
        algorithms = ["FFD", "P-EDF"]
        stats = BatchStats()
        accept_populations(
            algorithms, population, N_CORES, batch=True, stats=stats
        )
        registry = MetricsRegistry()
        record_batch_stats(registry, stats)
        assert (
            registry.value("ana_batch_scalar_fallbacks_total")
            == population.n_sets * len(algorithms)
        )


class TestNoInjection:
    def test_healthy_batch_records_no_fallbacks(self):
        """Control: without injection the same inputs take the batch
        path and the fallback counter stays at zero."""
        population = _population(seed=23)
        stats = BatchStats()
        batched = accept_population(
            "FFD", population, N_CORES, batch=True, stats=stats
        )
        scalar = accept_population(
            "FFD", population, N_CORES, batch=False
        )
        assert batched == scalar
        assert stats.scalar_fallbacks == 0
        assert stats.lanes == population.n_sets
