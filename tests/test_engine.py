"""Tests for the parallel experiment engine, result cache, and the
determinism contract (parallel == serial, bit for bit)."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    CACHE_SCHEMA_VERSION,
    AcceptanceUnit,
    CriteriaUnit,
    ExperimentEngine,
    ResultCache,
    SplittingUnit,
    execute_unit,
    unit_fingerprint,
    unit_spec,
)
from repro.experiments.acceptance import (
    AcceptanceConfig,
    acceptance_units,
    run_acceptance,
)
from repro.experiments.campaign import run_campaign
from repro.experiments.splitting import splitting_statistics
from repro.overhead.model import OverheadModel


def small_config(**overrides) -> AcceptanceConfig:
    defaults = dict(
        n_cores=2,
        n_tasks=6,
        sets_per_point=6,
        utilizations=(0.7, 0.85, 0.95),
        overheads=OverheadModel.paper_core_i7(3),
        algorithms=("FP-TS", "FFD"),
        seed=77,
    )
    defaults.update(overrides)
    return AcceptanceConfig(**defaults)


# ---------------------------------------------------------------- units


class TestWorkUnits:
    def test_acceptance_units_keep_seed_contract(self):
        config = small_config()
        units = acceptance_units(config)
        assert [u.seed for u in units] == [
            config.seed + 7919 * i for i in range(len(config.utilizations))
        ]
        assert [u.utilization for u in units] == list(config.utilizations)

    def test_unit_spec_is_json_serializable(self):
        unit = acceptance_units(small_config())[0]
        spec = unit_spec(unit)
        assert json.dumps(spec)  # must not raise
        assert spec["kind"] == "acceptance"

    def test_fingerprint_is_stable_and_config_sensitive(self):
        config = small_config()
        a, b = acceptance_units(config)[:2]
        assert unit_fingerprint(a) == unit_fingerprint(a)
        assert unit_fingerprint(a) != unit_fingerprint(b)

    def test_fingerprint_changes_with_schema_version(self):
        unit = acceptance_units(small_config())[0]
        current = unit_fingerprint(unit)
        assert current == unit_fingerprint(
            unit, schema_version=CACHE_SCHEMA_VERSION
        )
        assert current != unit_fingerprint(
            unit, schema_version=CACHE_SCHEMA_VERSION + 1
        )

    def test_execute_acceptance_unit_payload(self):
        unit = acceptance_units(small_config())[0]
        payload = execute_unit(unit)
        assert payload["total"] == unit.sets_per_point
        for name in unit.algorithms:
            assert 0 <= payload["accepted"][name] <= payload["total"]

    def test_execute_splitting_unit_payload(self):
        unit = SplittingUnit(
            algorithm="FP-TS",
            n_cores=2,
            n_tasks=6,
            sets_per_point=5,
            utilization=0.9,
            seed=11,
            overheads=OverheadModel.zero(),
        )
        payload = execute_unit(unit)
        assert payload["sets_total"] == 5
        assert 0 <= payload["sets_accepted"] <= 5

    def test_unknown_kind_rejected(self):
        unit = AcceptanceUnit(
            n_cores=2,
            n_tasks=4,
            sets_per_point=1,
            utilization=0.5,
            seed=0,
            algorithms=("FFD",),
            overheads=OverheadModel.zero(),
            kind="nonsense",
        )
        with pytest.raises(ValueError, match="unknown work-unit kind"):
            execute_unit(unit)

    def test_fingerprints_pinned(self):
        # Cache keys of existing entries: a change here invalidates every
        # cached payload and must come with a CACHE_SCHEMA_VERSION bump.
        fields = dict(
            n_cores=4,
            n_tasks=12,
            sets_per_point=100,
            utilization=0.9,
            seed=7,
            algorithms=("FP-TS", "FFD", "WFD"),
            overheads=OverheadModel.paper_core_i7(3),
        )
        assert CACHE_SCHEMA_VERSION == 4
        assert unit_fingerprint(CriteriaUnit(**fields, sim_sets=2)) == (
            "01cf26b434f5df4078861379e96b1caca41c0a9e68d35beceae6fdfd6f211bfe"
        )
        assert unit_fingerprint(AcceptanceUnit(**fields)) == (
            "15e35893f9f8aa4435ba75e67aee3a63f46f2692f1e61d9ddcfa29e99394c986"
        )


def _criteria_unit(algorithms, seed, utilization, overheads, platform=(4, 10)):
    n_cores, n_tasks = platform
    return CriteriaUnit(
        n_cores=n_cores,
        n_tasks=n_tasks,
        sets_per_point=6,
        utilization=utilization,
        seed=seed,
        algorithms=tuple(algorithms),
        overheads=overheads,
        sim_sets=2,
    )


class TestCriteriaUnit:
    """A criteria unit simulates each distinct (set, class, assignment)
    run once; reusing a row must not change any algorithm's entry."""

    @pytest.mark.parametrize(
        "algorithms, platform, utilizations, overheads",
        [
            (
                ("FP-TS", "FFD", "WFD"),
                (4, 10),
                (0.7, 0.9),
                OverheadModel.paper_core_i7(3),
            ),
            # G-EDF and G-RM simulate the same placeholder assignment;
            # only the class tells their runs apart (seed 2, U/m 0.3).
            (
                ("P-EDF", "C=D", "G-EDF", "G-RM"),
                (2, 4),
                (0.3, 0.5),
                OverheadModel.zero(),
            ),
        ],
        ids=["fp", "edf-and-global"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entries_equal_one_algorithm_units(
        self, algorithms, platform, utilizations, overheads, seed
    ):
        for utilization in utilizations:
            full = execute_unit(
                _criteria_unit(
                    algorithms, seed, utilization, overheads, platform
                )
            )
            for name in algorithms:
                alone = execute_unit(
                    _criteria_unit(
                        (name,), seed, utilization, overheads, platform
                    )
                )
                assert alone["accepted"] == {name: full["accepted"][name]}
                assert alone["criteria"] == {name: full["criteria"][name]}
                assert alone["total"] == full["total"]

    def test_kernel_sim_runs_pinned(self, monkeypatch):
        from repro.kernel.sim import KernelSim

        calls = []
        run = KernelSim.run

        def counting_run(sim):
            calls.append(sim)
            return run(sim)

        monkeypatch.setattr(KernelSim, "run", counting_run)
        payload = execute_unit(
            _criteria_unit(
                ("FP-TS", "FFD", "WFD"), 0, 0.9, OverheadModel.paper_core_i7(3)
            )
        )
        # 2 + 2 + 2 dynamic rows: FP-TS simulates sets 0 and 1, FFD
        # (which rejects set 1) sets 0 and 2, WFD sets 0 and 3.  FFD's
        # set-0 assignment is FP-TS's, so that run is reused; WFD packs
        # set 0 differently.
        assert payload["accepted"] == {"FP-TS": 6, "FFD": 5, "WFD": 4}
        assert len(calls) == 5


    #: Frozen at the commit before the criteria unit moved onto the
    #: batch packing pass (scalar FFD/WFD/... per set): the payloads of
    #: this grid, sort-keyed JSON joined by newlines, SHA-256.
    PINNED_PAYLOADS = (
        "56af8c7e8bfa7aa97599da2ab1e7d11cc32d8ed2c558908c03dfdbb5b3007f1c"
    )
    PIN_ALGORITHMS = ("FP-TS", "FFD", "WFD", "BFD", "NFD", "P-EDF", "G-EDF")

    def _pin_units(self):
        from repro.model.time import MS

        return [
            CriteriaUnit(
                n_cores=4,
                n_tasks=8,
                sets_per_point=6,
                utilization=utilization,
                seed=seed,
                algorithms=self.PIN_ALGORITHMS,
                overheads=overheads,
                period_max=100 * MS,
                sim_sets=1,
            )
            for overheads in (
                OverheadModel.zero(),
                OverheadModel.paper_core_i7(3),
            )
            for seed in range(4)
            for utilization in (0.6, 0.7, 0.8, 0.9, 0.95)
        ]

    def test_payloads_pinned(self):
        import hashlib

        blob = "\n".join(
            json.dumps(execute_unit(unit), sort_keys=True)
            for unit in self._pin_units()
        )
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert digest == self.PINNED_PAYLOADS

    def test_scalar_partitioners_run_only_for_simulated_sets(
        self, monkeypatch
    ):
        """Packed algorithms take their static axes from the packing
        pass; the scalar partitioner builds only the assignments the
        unit simulates (FP-TS's is FFD's wherever FFD accepts)."""
        import repro.partition.edf as edf_mod
        import repro.partition.heuristics as heuristics_mod
        from repro.experiments.algorithms import accept
        from repro.model.generator import TaskSetGenerator

        packed = ("FFD", "WFD", "BFD", "NFD", "P-EDF")
        unit = _criteria_unit(
            ("FP-TS",) + packed, 1, 0.8, OverheadModel.paper_core_i7(3)
        )
        tasksets = TaskSetGenerator(n_tasks=10, seed=1).generate_many(
            0.8 * 4, unit.sets_per_point
        )
        built = set()
        for name in ("FP-TS",) + packed:
            lanes = [
                lane for lane, ts in enumerate(tasksets)
                if accept(name, ts, 4, unit.overheads)
            ][: unit.sim_sets]
            source = "FFD" if name == "FP-TS" else name
            built |= {
                (source, lane) for lane in lanes
                if accept(source, tasksets[lane], 4, unit.overheads)
            }
        calls = []
        partition_taskset = heuristics_mod.partition_taskset

        def counting(*args, **kwargs):
            calls.append(args[0])
            return partition_taskset(*args, **kwargs)

        monkeypatch.setattr(heuristics_mod, "partition_taskset", counting)
        monkeypatch.setattr(edf_mod, "partition_taskset", counting)
        payload = execute_unit(unit)
        assert sum(payload["accepted"][name] for name in packed) > len(built)
        assert len(calls) == len(built)


# ------------------------------------------------------------ determinism


class TestParallelDeterminism:
    def test_sweep_parallel_equals_serial(self):
        config = small_config()
        serial = run_acceptance(config)
        parallel = run_acceptance(config, jobs=4)
        assert serial.ratios == parallel.ratios
        assert serial.utilizations == parallel.utilizations

    def test_campaign_csv_byte_identical_across_jobs(self):
        kwargs = dict(
            core_counts=(2, 4),
            task_counts=(6,),
            algorithms=("FP-TS", "FFD"),
            overhead_specs=(
                ("zero", OverheadModel.zero()),
                ("paper", OverheadModel.paper_core_i7(3)),
            ),
            utilizations=(0.7, 0.95),
            sets_per_point=4,
        )
        serial_csv = run_campaign(**kwargs).to_csv()
        parallel_csv = run_campaign(**kwargs, jobs=4).to_csv()
        assert serial_csv.encode() == parallel_csv.encode()

    def test_splitting_parallel_equals_serial(self):
        kwargs = dict(
            utilizations=(0.7, 0.9),
            n_cores=2,
            n_tasks=6,
            sets_per_point=6,
            seed=5,
        )
        serial = splitting_statistics(**kwargs)
        parallel = splitting_statistics(**kwargs, jobs=3)
        for a, b in zip(serial, parallel):
            assert a == b


# ----------------------------------------------------------------- cache


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("ab" + "0" * 62, {"x": 1})
        assert cache.load("ab" + "0" * 62) == {"x": 1}
        assert ("ab" + "0" * 62) in cache
        assert cache.entry_count() == 1

    def test_miss_and_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        assert cache.load(key) is None
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load(key) is None  # corrupt == miss, not error

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        # A truncated/corrupt entry must stop shadowing its slot: it is
        # renamed to *.json.corrupt, the slot reads as a miss, and a
        # store() afterwards repopulates it cleanly.
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"truncated": ')
        assert cache.load(key) is None
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        assert quarantined.read_text() == '{"truncated": '
        assert cache.entry_count() == 0  # .corrupt files are not entries
        cache.store(key, {"fresh": 1})
        assert cache.load(key) == {"fresh": 1}
        assert cache.entry_count() == 1

    def test_non_object_payload_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "aa" + "1" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")  # valid JSON, wrong shape
        assert cache.load(key) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_cold_populates_warm_skips_recompute(self, tmp_path):
        config = small_config()
        n_units = len(config.utilizations)

        cold = ExperimentEngine(cache=ResultCache(tmp_path))
        cold_result = run_acceptance(config, engine=cold)
        assert cold.stats.cache_misses == n_units
        assert cold.stats.computed == n_units

        warm = ExperimentEngine(cache=ResultCache(tmp_path))
        warm_result = run_acceptance(config, engine=warm)
        assert warm.stats.cache_hits == n_units
        assert warm.stats.computed == 0  # zero recomputation
        assert warm_result.ratios == cold_result.ratios

    def test_stale_schema_version_invalidates(self, tmp_path, monkeypatch):
        config = small_config()
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        run_acceptance(config, engine=engine)
        assert engine.stats.cache_hits == 0

        import repro.engine.units as units_mod

        monkeypatch.setattr(
            units_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        stale = ExperimentEngine(cache=ResultCache(tmp_path))
        run_acceptance(config, engine=stale)
        assert stale.stats.cache_hits == 0  # old entries never returned
        assert stale.stats.computed == len(config.utilizations)

    def test_engine_accepts_path_string(self, tmp_path):
        engine = ExperimentEngine(cache=str(tmp_path))
        assert isinstance(engine.cache, ResultCache)

    def test_cache_with_parallel_jobs(self, tmp_path):
        config = small_config()
        cold = ExperimentEngine(jobs=3, cache=ResultCache(tmp_path))
        cold_result = run_acceptance(config, engine=cold)
        warm = ExperimentEngine(jobs=3, cache=ResultCache(tmp_path))
        warm_result = run_acceptance(config, engine=warm)
        assert warm.stats.computed == 0
        assert warm_result.ratios == cold_result.ratios


# ---------------------------------------------------------------- engine


class TestExperimentEngine:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)
        with pytest.raises(ValueError):
            ExperimentEngine(chunks_per_worker=0)

    def test_stats_accumulate_across_runs(self):
        config = small_config()
        engine = ExperimentEngine()
        run_acceptance(config, engine=engine)
        run_acceptance(config, engine=engine)
        n_units = len(config.utilizations)
        assert engine.stats.units == 2 * n_units
        assert engine.stats.computed == 2 * n_units
        assert engine.stats.wall_s > 0

    def test_summary_mentions_cache_only_when_used(self, tmp_path):
        engine = ExperimentEngine()
        run_acceptance(small_config(), engine=engine)
        assert "cache" not in engine.stats.summary()

        cached = ExperimentEngine(cache=ResultCache(tmp_path))
        run_acceptance(small_config(), engine=cached)
        assert "cache" in cached.stats.summary()
        assert "engine:" in cached.stats.summary()

    def test_empty_unit_list(self):
        assert ExperimentEngine().run([]) == []


# ------------------------------------------------- satellite API fixes


class TestSatelliteFixes:
    def test_ratio_at_tolerates_float_arithmetic(self):
        result = run_acceptance(small_config())
        # 0.8500000000000001 from arithmetic must still resolve.
        assert result.ratio_at("FP-TS", 0.7 + 0.15) == pytest.approx(
            result.ratios["FP-TS"][1]
        )

    def test_ratio_at_raises_keyerror_off_grid(self):
        result = run_acceptance(small_config())
        with pytest.raises(KeyError, match="not a grid point"):
            result.ratio_at("FP-TS", 0.5)

    def test_filtered_rejects_unknown_key(self):
        result = run_campaign(
            core_counts=(2,),
            task_counts=(6,),
            algorithms=("FFD",),
            utilizations=(0.7,),
            sets_per_point=2,
        )
        with pytest.raises(ValueError, match="valid keys"):
            result.filtered(algorithm_name="FFD")
        # Valid keys still filter.
        assert result.filtered(algorithm="FFD")

    def test_pivot_matches_mean_acceptance(self):
        result = run_campaign(
            core_counts=(2, 4),
            task_counts=(6,),
            algorithms=("FP-TS", "FFD"),
            utilizations=(0.7, 0.95),
            sets_per_point=4,
        )
        table = result.pivot(row_key="algorithm", column_key="n_cores")
        for algorithm in ("FP-TS", "FFD"):
            for n_cores in (2, 4):
                expected = result.mean_acceptance(
                    algorithm=algorithm, n_cores=n_cores
                )
                row = next(
                    line
                    for line in table.splitlines()
                    if line.strip().startswith(algorithm)
                )
                assert f"{expected:.3f}" in row
