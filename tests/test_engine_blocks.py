"""Grouped in-process execution: a sweep's batch acceptance and criteria
points share one packing pass per block.

The engine runs the cache misses of a serial run through
:func:`repro.engine.units.unit_blocks` /
:func:`~repro.engine.units.execute_units`.  Every batch verdict is
lane-local, so a unit's payload must not depend on which block it ran in
— these tests hold grouped payloads to per-unit ones, keep failures per
unit, and check the population-error fallback stays per unit.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.engine.units as units_mod
import repro.experiments.algorithms as algorithms_mod
from repro.analysis.batch import BATCH_STATS
from repro.engine import ExperimentEngine, execute_unit
from repro.engine.units import CriteriaUnit, execute_units, unit_blocks
from repro.experiments.acceptance import AcceptanceConfig, acceptance_units
from repro.overhead.model import OverheadModel

UTILIZATIONS = (0.6, 0.7, 0.8, 0.9, 0.95, 1.0)


def _units(seed, algorithms=("FP-TS", "FFD", "WFD"), n_cores=2, n_tasks=6,
           sets=5, batch=True, utilizations=UTILIZATIONS):
    return acceptance_units(
        AcceptanceConfig(
            n_cores=n_cores,
            n_tasks=n_tasks,
            sets_per_point=sets,
            utilizations=utilizations,
            seed=seed,
            overheads=OverheadModel.paper_core_i7(3),
            algorithms=algorithms,
            batch=batch,
        )
    )


def _criteria_units(seed, algorithms=("FP-TS", "FFD", "WFD"), sets=5):
    """The criteria units of the points :func:`_units` sweeps."""
    shared = [
        field.name for field in dataclasses.fields(CriteriaUnit)
        if field.name not in ("kind", "sim_sets")
    ]
    return [
        CriteriaUnit(
            **{name: getattr(unit, name) for name in shared}, sim_sets=1
        )
        for unit in _units(seed, algorithms, sets=sets)
    ]


def _grouped(units):
    payloads = [None] * len(units)
    for block in unit_blocks(units):
        for index, payload in zip(
            block, execute_units([units[i] for i in block])
        ):
            payloads[index] = payload
    return payloads


class TestBlocks:
    def test_points_fill_blocks_in_unit_order(self, monkeypatch):
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 12)
        units = _units(0)  # six points of 5 lanes
        assert unit_blocks(units) == [[0, 1], [2, 3], [4, 5]]

    def test_other_units_and_keys_get_their_own_blocks(self, monkeypatch):
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 1000)
        fast = _units(0)[:2]
        scalar = _units(0, batch=False)[:1]
        other_cores = _units(0, n_cores=4, n_tasks=8)[:2]
        mixed = [fast[0], scalar[0], other_cores[0], fast[1],
                 other_cores[1]]
        assert unit_blocks(mixed) == [[0, 3], [1], [2, 4]]

    def test_a_point_larger_than_the_cap_is_a_block_alone(
        self, monkeypatch
    ):
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 3)
        assert unit_blocks(_units(0)[:3]) == [[0], [1], [2]]


class TestGroupedEqualsPerUnit:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "algorithms",
        [("FP-TS", "FFD", "WFD"), ("FFD", "PDMS"), ("FP-TS", "WFD", "SPA2")],
        ids=["batch-only", "with-pdms", "with-spa2"],
    )
    def test_payloads_match(self, seed, algorithms, monkeypatch):
        # 6 points of 5 lanes, at most 15 lanes a block: the boundaries
        # fall mid-sweep.
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 15)
        units = _units(seed, algorithms)
        assert len(unit_blocks(units)) == 2
        per_unit = [execute_unit(unit) for unit in units]
        assert _grouped(units) == per_unit
        scalar = [
            execute_unit(unit)
            for unit in _units(seed, algorithms, batch=False)
        ]
        assert per_unit == scalar

    def test_fewer_tasks_than_cores(self):
        units = _units(
            5, n_cores=4, n_tasks=4, utilizations=(0.3, 0.5, 0.6)
        )
        payloads = _grouped(units)
        assert payloads == [execute_unit(unit) for unit in units]
        assert all(
            payload["accepted"] == {"FP-TS": 5, "FFD": 5, "WFD": 5}
            for payload in payloads
        )

    def test_engine_runs_one_kernel_call_per_block(self, monkeypatch):
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 15)
        calls = []
        kernel = algorithms_mod.batch_partition_accept_multi

        def counting(population, *args, **kwargs):
            calls.append(population.n_sets)
            return kernel(population, *args, **kwargs)

        monkeypatch.setattr(
            algorithms_mod, "batch_partition_accept_multi", counting
        )
        units = _units(7)
        payloads = ExperimentEngine().run(units)
        assert calls == [15, 15]
        monkeypatch.setattr(
            algorithms_mod, "batch_partition_accept_multi", kernel
        )
        assert payloads == [execute_unit(unit) for unit in units]


class TestCriteriaBlocks:
    """Criteria units join the blocks of batch acceptance units with the
    same key; each payload is built from the unit's own lane slice."""

    def test_criteria_units_share_the_acceptance_key(self, monkeypatch):
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 1000)
        criteria = _criteria_units(0)[:2]
        acceptance = _units(0)[:2]
        other = _criteria_units(0, algorithms=("FFD",))[:1]
        mixed = [criteria[0], acceptance[0], other[0], criteria[1],
                 acceptance[1]]
        assert unit_blocks(mixed) == [[0, 1, 3, 4], [2]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "algorithms",
        [("FP-TS", "FFD", "WFD"), ("FP-TS", "BFD", "NFD", "P-EDF", "G-RM"),
         ("WFD", "PDMS")],
        ids=["fp", "all-packings-and-global", "with-pdms"],
    )
    def test_merged_payloads_match_per_unit(
        self, seed, algorithms, monkeypatch
    ):
        monkeypatch.setattr(units_mod, "BLOCK_LANES", 15)
        units = _criteria_units(seed, algorithms)
        assert len(unit_blocks(units)) == 2
        per_unit = [execute_unit(unit) for unit in units]
        assert _grouped(units) == per_unit
        assert ExperimentEngine().run(units) == per_unit

    def test_mixed_block_makes_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = algorithms_mod.batch_partition_accept_multi

        def counting(population, *args, **kwargs):
            calls.append(population.n_sets)
            return kernel(population, *args, **kwargs)

        units = [
            unit
            for pair in zip(_criteria_units(5), _units(5))
            for unit in pair
        ]
        per_unit = [execute_unit(unit) for unit in units]
        monkeypatch.setattr(
            algorithms_mod, "batch_partition_accept_multi", counting
        )
        assert execute_units(units) == per_unit
        assert calls == [5 * len(units)]


class TestFailuresStayPerUnit:
    def test_one_raising_unit_alone_fails(self, tmp_path, monkeypatch):
        units = _units(3)
        bad = units[2]
        generator = units_mod._generator

        def flaky(unit):
            if unit == bad:
                raise RuntimeError("injected generation failure")
            return generator(unit)

        monkeypatch.setattr(units_mod, "_generator", flaky)
        journal = tmp_path / "journal.jsonl"
        engine = ExperimentEngine(journal=journal)
        payloads = engine.run(units)
        assert [f.index for f in engine.last_failures] == [2]
        assert "injected generation failure" in engine.last_failures[0].error
        assert payloads[2] is None
        monkeypatch.setattr(units_mod, "_generator", generator)
        for index, unit in enumerate(units):
            if index != 2:
                assert payloads[index] == execute_unit(unit)
        lines = journal.read_text().splitlines()
        assert len(lines) == len(units) - 1
        assert {json.loads(line)["payload"]["total"] for line in lines} == {5}

    def test_fast_path_raises_the_failing_units_error(self, monkeypatch):
        units = _units(3)
        generator = units_mod._generator

        def flaky(unit):
            if unit == units[4]:
                raise RuntimeError("injected generation failure")
            return generator(unit)

        monkeypatch.setattr(units_mod, "_generator", flaky)
        with pytest.raises(RuntimeError, match="injected generation"):
            ExperimentEngine().run(units)


class TestPopulationErrorFallsBackPerUnit:
    def test_scalar_fallbacks_stay_per_unit(self, monkeypatch):
        units = _units(4)
        bad = units[1]
        generator = units_mod._generator

        class NonRateMonotonic:
            """Generator whose batches list tasks lowest priority first:
            a population the batch kernel refuses."""

            def __init__(self, inner):
                self.inner = inner

            def generate_batch(self, total, count):
                batch = self.inner.generate_batch(total, count)
                return dataclasses.replace(
                    batch,
                    wcet=batch.wcet[:, ::-1],
                    period=batch.period[:, ::-1],
                    deadline=batch.deadline[:, ::-1],
                    wss=batch.wss[:, ::-1],
                    names=tuple(lane[::-1] for lane in batch.names),
                )

        def skewed(unit):
            if unit == bad:
                return NonRateMonotonic(generator(unit))
            return generator(unit)

        monkeypatch.setattr(units_mod, "_generator", skewed)
        before = BATCH_STATS.scalar_fallbacks
        per_unit = [execute_unit(unit) for unit in units]
        per_unit_fallbacks = BATCH_STATS.scalar_fallbacks - before
        # Only the skewed unit's 5 lanes went scalar, counted once per
        # requested batched algorithm (FP-TS, FFD and WFD).
        assert per_unit_fallbacks == 5 * 3
        before = BATCH_STATS.scalar_fallbacks
        assert execute_units(units) == per_unit
        assert BATCH_STATS.scalar_fallbacks - before == per_unit_fallbacks

    def test_criteria_fallback_builds_scalar_assignments(self, monkeypatch):
        """A criteria unit whose population the kernel refuses takes
        every axis from the scalar assignments — the same payload — and
        a merged block holding it reruns per unit."""
        units = _criteria_units(4)
        clean = [execute_unit(unit) for unit in units]
        refuse = units[1]
        lane = units_mod._generator(refuse).generate_batch(
            refuse.utilization * refuse.n_cores, 5
        ).wcet[0]
        kernel = algorithms_mod.batch_partition_accept_multi

        def refusing(population, *args, **kwargs):
            if (population.wcet == lane).all(axis=1).any():
                raise algorithms_mod.PopulationError("injected")
            return kernel(population, *args, **kwargs)

        monkeypatch.setattr(
            algorithms_mod, "batch_partition_accept_multi", refusing
        )
        before = BATCH_STATS.scalar_fallbacks
        assert execute_units(units) == clean
        # Only the refused unit's 5 lanes went scalar (FP-TS, FFD, WFD).
        assert BATCH_STATS.scalar_fallbacks - before == 5 * 3
