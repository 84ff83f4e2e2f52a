"""Tests for the factorial campaign runner."""

from __future__ import annotations

import csv
import io
import math

import pytest

from repro.experiments.campaign import (
    CRITERIA_AXES,
    CampaignRecord,
    CampaignResult,
    run_campaign,
)
from repro.overhead.model import OverheadModel


@pytest.fixture(scope="module")
def small_campaign() -> CampaignResult:
    return run_campaign(
        core_counts=(2, 4),
        task_counts=(6,),
        algorithms=("FP-TS", "FFD"),
        overhead_specs=(
            ("zero", OverheadModel.zero()),
            ("paper", OverheadModel.paper_core_i7(3)),
        ),
        utilizations=(0.7, 0.95),
        sets_per_point=8,
    )


class TestRunCampaign:
    def test_record_count(self, small_campaign):
        # 2 cores x 1 task-count x 2 overheads x 2 algorithms x 2 points.
        assert len(small_campaign.records) == 2 * 2 * 2 * 2

    def test_filtered(self, small_campaign):
        rows = small_campaign.filtered(algorithm="FFD", n_cores=2)
        assert len(rows) == 4
        assert all(r.algorithm == "FFD" for r in rows)

    def test_acceptance_in_range(self, small_campaign):
        assert all(
            0.0 <= r.acceptance <= 1.0 for r in small_campaign.records
        )

    def test_fpts_dominates_ffd_in_campaign(self, small_campaign):
        for n_cores in (2, 4):
            fpts = small_campaign.mean_acceptance(
                algorithm="FP-TS", n_cores=n_cores
            )
            ffd = small_campaign.mean_acceptance(
                algorithm="FFD", n_cores=n_cores
            )
            assert fpts >= ffd - 1e-9

    def test_overheads_never_help(self, small_campaign):
        for algorithm in ("FP-TS", "FFD"):
            zero = small_campaign.mean_acceptance(
                algorithm=algorithm, overheads="zero"
            )
            paper = small_campaign.mean_acceptance(
                algorithm=algorithm, overheads="paper"
            )
            assert zero >= paper - 1e-9

    def test_skips_infeasible_combinations(self):
        result = run_campaign(
            core_counts=(8,),
            task_counts=(4,),  # fewer tasks than cores: skipped
            algorithms=("FFD",),
            utilizations=(0.5,),
            sets_per_point=2,
        )
        assert result.records == []

    def test_deterministic(self):
        kwargs = dict(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FFD",),
            utilizations=(0.8,),
            sets_per_point=6,
        )
        a = run_campaign(**kwargs)
        b = run_campaign(**kwargs)
        assert a.records == b.records


class TestOutput:
    def test_pivot(self, small_campaign):
        table = small_campaign.pivot()
        assert "FP-TS" in table and "FFD" in table

    def test_csv(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.csv"
        text = small_campaign.to_csv(path)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "n_cores",
            "n_tasks",
            "overheads",
            "algorithm",
            "utilization",
            "acceptance",
            "preemptions",
            "migrations",
            "spare_balance",
            "packing_slack",
            "avg_power_mw",
            "energy_per_hp_uj",
        ]
        assert len(rows) == 1 + len(small_campaign.records)
        assert path.read_text() == text

    def test_csv_blank_criteria_without_criteria_run(self, small_campaign):
        rows = list(csv.reader(io.StringIO(small_campaign.to_csv())))
        # Without criteria=True the six axis columns stay empty, not 'nan'.
        assert all(row[6:] == [""] * 6 for row in rows[1:])

    def test_mean_on_empty_filter(self, small_campaign):
        assert small_campaign.mean_acceptance(algorithm="GHOST") == 0.0

    def test_pivot_rejects_unknown_value_key(self, small_campaign):
        with pytest.raises(ValueError, match="unknown value key"):
            small_campaign.pivot(value_key="n_tasks")


class TestCriteria:
    @pytest.fixture(scope="class")
    def criteria_campaign(self) -> CampaignResult:
        return run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FP-TS", "FFD"),
            overhead_specs=(("paper", OverheadModel.paper_core_i7(3)),),
            utilizations=(0.6, 0.8),
            sets_per_point=4,
            criteria=True,
            sim_sets=2,
        )

    def test_axes_populated(self, criteria_campaign):
        measured = [
            r
            for r in criteria_campaign.records
            if not math.isnan(r.spare_balance)
        ]
        assert measured, "criteria=True must fill axes somewhere"
        for record in measured:
            assert 0.0 <= record.spare_balance <= 1.0 + 1e-9
            assert record.packing_slack <= 1.0 + 1e-9
            assert record.preemptions >= 0.0
            assert record.migrations >= 0.0
            assert record.avg_power_mw > 0.0
            assert record.energy_per_hp_uj > 0.0

    def test_axis_pivots_render(self, criteria_campaign):
        for axis in CRITERIA_AXES:
            table = criteria_campaign.pivot(value_key=axis)
            assert "FP-TS" in table

    def test_csv_carries_axes(self, criteria_campaign):
        rows = list(csv.reader(io.StringIO(criteria_campaign.to_csv())))
        body = rows[1:]
        assert any(row[6] != "" for row in body)

    def test_deterministic(self, criteria_campaign):
        again = run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FP-TS", "FFD"),
            overhead_specs=(("paper", OverheadModel.paper_core_i7(3)),),
            utilizations=(0.6, 0.8),
            sets_per_point=4,
            criteria=True,
            sim_sets=2,
        )
        assert again.records == criteria_campaign.records


_TWO_CELLS = dict(
    core_counts=(2,),
    task_counts=(5,),
    algorithms=("FP-TS", "FFD", "WFD"),
    overhead_specs=(
        ("zero", OverheadModel.zero()),
        ("paper", OverheadModel.paper_core_i7(3)),
    ),
    utilizations=(0.7, 0.9),
    sets_per_point=4,
)


class TestOneUnitPerPoint:
    """A criteria campaign answers acceptance from its criteria units:
    one unit per grid point, and the same acceptance as a plain run."""

    def test_acceptance_columns_match_plain_campaign(self):
        def first_six_columns(result):
            return [
                ",".join(line.split(",")[:6])
                for line in result.to_csv().splitlines()
            ]

        plain = run_campaign(**_TWO_CELLS)
        with_criteria = run_campaign(**_TWO_CELLS, criteria=True, sim_sets=1)
        assert len(plain.records) == 12
        assert first_six_columns(with_criteria) == first_six_columns(plain)

    def test_cold_run_executes_one_unit_per_point(self, tmp_path):
        from repro.engine import ExperimentEngine, ResultCache

        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        run_campaign(**_TWO_CELLS, engine=engine, criteria=True, sim_sets=1)
        points = 2 * len(_TWO_CELLS["utilizations"])  # two cells
        assert engine.stats.units == points
        assert engine.stats.computed == points
        assert engine.stats.cache_misses == points

    def test_failed_criteria_unit_is_a_gap(self):
        partial = run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FFD",),
            utilizations=(0.6, 0.9),
            sets_per_point=4,
            engine=_FailPointEngine(fail_utilization=0.9),
            criteria=True,
            sim_sets=1,
        )
        assert [f["utilization"] for f in partial.failed_units] == [0.9]
        assert {r.utilization for r in partial.records} == {0.6}
        tables = {
            value_key: partial.pivot(
                row_key="algorithm",
                column_key="utilization",
                value_key=value_key,
            )
            for value_key in ("acceptance",) + CRITERIA_AXES
        }
        assert all("0.9" not in table for table in tables.values())
        # (A criteria axis may truly measure 0, e.g. no preemptions.)
        assert "0.000" not in tables["acceptance"]


class _FailPointEngine:
    """Engine wrapper that nulls the payloads of one utilization point,
    exactly as ExperimentEngine does after exhausting retries."""

    def __init__(self, fail_utilization: float):
        from repro.engine import ExperimentEngine

        self.fail_utilization = fail_utilization
        self._engine = ExperimentEngine()

    def run(self, units):
        payloads = self._engine.run(units)
        return [
            None
            if math.isclose(unit.utilization, self.fail_utilization)
            else payload
            for unit, payload in zip(units, payloads)
        ]


class TestFailedUnits:
    """Satellite regression: a failed work unit must surface as a *gap*
    (failed_units + missing records + ``-`` pivot cells), never as a
    silent 0.0 acceptance that reads like total rejection."""

    @pytest.fixture(scope="class")
    def partial(self) -> CampaignResult:
        return run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FFD",),
            utilizations=(0.6, 0.9),
            sets_per_point=4,
            engine=_FailPointEngine(fail_utilization=0.9),
        )

    def test_failed_point_listed_not_recorded(self, partial):
        assert partial.is_partial
        assert [f["utilization"] for f in partial.failed_units] == [0.9]
        assert all(r.utilization != 0.9 for r in partial.records)

    def test_failed_point_absent_from_pivot(self, partial):
        # The failed utilization contributes no records, so it cannot
        # appear as a 0.000 column: it is absent from the pivot.
        table = partial.pivot(
            row_key="algorithm", column_key="utilization"
        )
        assert "0.9" not in table
        assert "0.000" not in table

    def test_unmeasured_cell_renders_dash_not_zero(self):
        # A record whose criteria axis is NaN (e.g. the algorithm
        # accepted no set to simulate) renders `-`, never 0.000.
        result = CampaignResult(
            records=[
                CampaignRecord(
                    n_cores=2,
                    n_tasks=5,
                    overheads="zero",
                    algorithm="A",
                    utilization=0.6,
                    acceptance=1.0,
                    avg_power_mw=2000.0,
                ),
                CampaignRecord(
                    n_cores=4,
                    n_tasks=5,
                    overheads="zero",
                    algorithm="A",
                    utilization=0.6,
                    acceptance=0.5,
                ),
            ]
        )
        table = result.pivot(value_key="avg_power_mw")
        row = next(line for line in table.splitlines() if "A" in line)
        cells = row.split()[1:]
        assert cells == ["2000.000", "-"]

    def test_mean_acceptance_ignores_the_gap(self, partial):
        # The mean over FFD's records equals the surviving point's value,
        # not that value averaged with a phantom 0.0.
        surviving = [r.acceptance for r in partial.records]
        assert partial.mean_acceptance(algorithm="FFD") == pytest.approx(
            sum(surviving) / len(surviving)
        )
