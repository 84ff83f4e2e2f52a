"""Factorial experiment campaigns (extension).

Runs the acceptance experiment over a grid of platform/workload
configurations — core counts x task counts x algorithms x overhead models
— and collects long-format records suitable for external analysis (CSV)
plus quick pivot summaries.  This is the harness a paper's full evaluation
section would drive.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine import CriteriaUnit, ExperimentEngine, ResultCache
from repro.experiments.acceptance import (
    AcceptanceConfig,
    acceptance_units,
    assemble_acceptance,
)
from repro.overhead.model import OverheadModel


@dataclass(frozen=True)
class CampaignRecord:
    """One (configuration, utilization, algorithm) measurement.

    ``acceptance`` is always populated; the multi-criteria axes are NaN
    unless the campaign ran with ``criteria=True`` (and the algorithm
    accepted at least one set at this point — an axis that could not be
    measured stays NaN and renders as ``-`` in pivots, never as 0).
    """

    n_cores: int
    n_tasks: int
    overheads: str
    algorithm: str
    utilization: float
    acceptance: float
    #: Mean preemptions per job release (simulated subsample).
    preemptions: float = math.nan
    #: Mean migrations per job release (simulated subsample).
    migrations: float = math.nan
    #: min/mean of per-core spare capacity (1.0 = perfectly balanced).
    spare_balance: float = math.nan
    #: 1 - total_utilization / m over accepted assignments.
    packing_slack: float = math.nan
    #: Mean platform power (mW) from the simulation energy ledger.
    avg_power_mw: float = math.nan
    #: Energy per hyperperiod (uJ) at the run's mean power.
    energy_per_hp_uj: float = math.nan


#: Valid field names for :meth:`CampaignResult.filtered` criteria.
_RECORD_FIELDS = tuple(CampaignRecord.__dataclass_fields__)

#: The multi-criteria axes, in record/CSV column order.
CRITERIA_AXES = (
    "preemptions",
    "migrations",
    "spare_balance",
    "packing_slack",
    "avg_power_mw",
    "energy_per_hp_uj",
)

#: Record fields :meth:`CampaignResult.pivot` can aggregate.
_VALUE_FIELDS = ("acceptance",) + CRITERIA_AXES


@dataclass
class CampaignResult:
    """Campaign records, plus the manifest of points that failed.

    ``failed_units`` is non-empty only when the engine exhausted its
    retries on some work unit and degraded gracefully: the affected
    (configuration, utilization) points are *absent* from ``records``
    and listed here instead, so a partial campaign is still usable and
    the gaps are explicit.
    """

    records: List[CampaignRecord] = field(default_factory=list)
    failed_units: List[dict] = field(default_factory=list)

    @property
    def is_partial(self) -> bool:
        return bool(self.failed_units)

    def filtered(self, **criteria) -> List[CampaignRecord]:
        for key in criteria:
            if key not in _RECORD_FIELDS:
                raise ValueError(
                    f"unknown filter key {key!r}; valid keys: "
                    f"{', '.join(_RECORD_FIELDS)}"
                )
        return [
            r
            for r in self.records
            if all(getattr(r, k) == v for k, v in criteria.items())
        ]

    def mean_acceptance(self, **criteria) -> float:
        rows = self.filtered(**criteria)
        if not rows:
            return 0.0
        return sum(r.acceptance for r in rows) / len(rows)

    def pivot(
        self,
        row_key: str = "algorithm",
        column_key: str = "n_cores",
        value_key: str = "acceptance",
    ) -> str:
        """Text pivot table of the mean of ``value_key``.

        Groups in a single pass over the records (sum + count per cell)
        instead of re-filtering the whole record list for every cell, so
        the cost is O(records + cells) rather than O(records x cells).
        NaN values (unmeasured criteria axes) are excluded from both the
        sum and the count, and a cell with no measured value renders as
        ``-`` — a point whose work unit failed must read as *missing*,
        not as a 0.000 that looks like total rejection.
        """
        if value_key not in _VALUE_FIELDS:
            raise ValueError(
                f"unknown value key {value_key!r}; valid keys: "
                f"{', '.join(_VALUE_FIELDS)}"
            )
        sums: Dict[Tuple[object, object], float] = {}
        counts: Dict[Tuple[object, object], int] = {}
        cells_seen: Dict[Tuple[object, object], bool] = {}
        for r in self.records:
            cell = (getattr(r, row_key), getattr(r, column_key))
            cells_seen[cell] = True
            value = getattr(r, value_key)
            if math.isnan(value):
                continue
            sums[cell] = sums.get(cell, 0.0) + value
            counts[cell] = counts.get(cell, 0) + 1
        rows = sorted({cell[0] for cell in cells_seen}, key=str)
        columns = sorted({cell[1] for cell in cells_seen}, key=str)
        header = row_key + "/" + column_key
        lines = [
            f"{header:>16} " + " ".join(f"{str(c):>8}" for c in columns)
        ]
        for row in rows:
            cells = []
            for column in columns:
                n = counts.get((row, column), 0)
                if n:
                    cells.append(f"{sums[(row, column)] / n:>8.3f}")
                else:
                    cells.append(f"{'-':>8}")
            lines.append(f"{str(row):>16} " + " ".join(cells))
        return "\n".join(lines)

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """Long-format CSV; unmeasured criteria axes are empty cells."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            [
                "n_cores",
                "n_tasks",
                "overheads",
                "algorithm",
                "utilization",
                "acceptance",
            ]
            + list(CRITERIA_AXES)
        )
        for r in self.records:
            writer.writerow(
                [
                    r.n_cores,
                    r.n_tasks,
                    r.overheads,
                    r.algorithm,
                    f"{r.utilization:.4f}",
                    f"{r.acceptance:.4f}",
                ]
                + [
                    ""
                    if math.isnan(getattr(r, axis))
                    else f"{getattr(r, axis):.6g}"
                    for axis in CRITERIA_AXES
                ]
            )
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text


def run_campaign(
    core_counts: Sequence[int] = (2, 4, 8),
    task_counts: Sequence[int] = (8, 16),
    algorithms: Sequence[str] = ("FP-TS", "FFD", "WFD"),
    overhead_specs: Sequence[Tuple[str, OverheadModel]] = (
        ("zero", OverheadModel.zero()),
    ),
    utilizations: Sequence[float] = (0.7, 0.8, 0.9, 0.95),
    sets_per_point: int = 25,
    seed: int = 404,
    jobs: int = 1,
    cache: Union[ResultCache, str, None] = None,
    engine: Optional[ExperimentEngine] = None,
    criteria: bool = False,
    sim_sets: int = 5,
) -> CampaignResult:
    """Run the full factorial grid; deterministic for fixed arguments.

    The whole grid is decomposed into work units up front and executed
    through **one** engine pass, so ``jobs > 1`` parallelizes across
    configurations as well as utilization points.  Record order (and
    therefore CSV output) is identical to the original nested serial
    loops for any ``jobs``/``cache`` setting.

    Each grid point is **one** unit.  ``criteria=True`` dispatches a
    :class:`~repro.engine.CriteriaUnit` instead of the acceptance unit
    (short simulations capped at ``sim_sets`` accepted sets per
    algorithm); its ``accepted``/``total`` payload gives the acceptance
    ratios — the same seed contract and the same accept test, so the
    acceptance column is identical to a ``criteria=False`` run — and
    its ``criteria`` payload fills the multi-criteria axes.  A failed
    unit of either kind makes its point a gap: listed in
    ``failed_units``, with no records.
    """
    if engine is None:
        engine = ExperimentEngine(jobs=jobs, cache=cache)

    # Flatten the grid: one AcceptanceConfig per (cores, tasks, overheads)
    # cell, preserving the original iteration order.
    cells: List[Tuple[str, AcceptanceConfig]] = []
    for n_cores in core_counts:
        for n_tasks in task_counts:
            if n_tasks < n_cores:
                continue
            for overhead_name, model in overhead_specs:
                cells.append(
                    (
                        overhead_name,
                        AcceptanceConfig(
                            n_cores=n_cores,
                            n_tasks=n_tasks,
                            sets_per_point=sets_per_point,
                            utilizations=list(utilizations),
                            overheads=model,
                            algorithms=tuple(algorithms),
                            seed=seed + 31 * n_cores + 7 * n_tasks,
                        ),
                    )
                )

    units = [unit for _, config in cells for unit in acceptance_units(config)]
    if criteria:
        # Still one unit per point: the criteria unit's accepted/total
        # payload is the acceptance unit's (same population, same test).
        units = [
            CriteriaUnit(
                n_cores=unit.n_cores,
                n_tasks=unit.n_tasks,
                sets_per_point=unit.sets_per_point,
                utilization=unit.utilization,
                seed=unit.seed,
                algorithms=unit.algorithms,
                overheads=unit.overheads,
                period_min=unit.period_min,
                period_max=unit.period_max,
                sim_sets=sim_sets,
            )
            for unit in units
        ]
    payloads = engine.run(units)

    result = CampaignResult()
    offset = 0
    for overhead_name, config in cells:
        point_payloads = payloads[offset : offset + len(config.utilizations)]
        offset += len(config.utilizations)
        sweep = assemble_acceptance(config, point_payloads)
        for failed_u in sweep.failed_utilizations:
            result.failed_units.append(
                {
                    "n_cores": config.n_cores,
                    "n_tasks": config.n_tasks,
                    "overheads": overhead_name,
                    "utilization": failed_u,
                }
            )
        for algorithm in algorithms:
            for point_index, (u, acceptance) in enumerate(
                zip(sweep.utilizations, sweep.ratios[algorithm])
            ):
                if math.isnan(acceptance):
                    continue  # listed in failed_units instead
                measured = (
                    point_payloads[point_index].get("criteria") or {}
                ).get(algorithm) or {}
                axes = {
                    axis: (
                        measured[axis]
                        if measured.get(axis) is not None
                        else math.nan
                    )
                    for axis in CRITERIA_AXES
                }
                result.records.append(
                    CampaignRecord(
                        n_cores=config.n_cores,
                        n_tasks=config.n_tasks,
                        overheads=overhead_name,
                        algorithm=algorithm,
                        utilization=u,
                        acceptance=acceptance,
                        **axes,
                    )
                )
    return result
