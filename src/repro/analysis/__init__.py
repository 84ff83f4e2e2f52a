"""Schedulability analysis.

Uniprocessor fixed-priority response-time analysis (with release jitter, the
form needed for split-task tails), classic utilization bounds, the
overhead-aware variants used for the paper's evaluation, and the
struct-of-arrays batch kernels (:mod:`repro.analysis.batch`) that run the
same exact tests over whole task-set populations in lock-step.
"""

from repro.analysis.rta import (
    CoreAnalysis,
    EntryResult,
    assignment_schedulable,
    core_schedulable,
    entry_response_time,
    order_entries,
    response_time,
)
from repro.analysis.batch import (
    BATCH_STATS,
    BatchStats,
    PackingResult,
    PopulationError,
    TaskSetPopulation,
    batch_partition_accept,
    batch_partition_accept_multi,
    batch_rta_responses,
    core_utilizations,
)
from repro.analysis.incremental import (
    STATS,
    AnalysisStats,
    CoreAnalysisContext,
    EdfCoreContext,
)
from repro.analysis.bounds import (
    liu_layland_bound,
    liu_layland_schedulable,
    hyperbolic_schedulable,
    spa_light_threshold,
)
from repro.analysis.edf import (
    demand_bound,
    edf_schedulable,
    edf_utilization_schedulable,
)
from repro.analysis.global_bounds import (
    global_edf_gfb_schedulable,
    global_rm_us_schedulable,
)
from repro.analysis.blocking import (
    assignment_schedulable_with_resources,
    core_schedulable_with_resources,
)
from repro.analysis.qpa import qpa_schedulable
from repro.analysis.opa import opa_admission, opa_order, opa_schedulable
from repro.analysis.oracle import fp_schedulable_oracle
from repro.analysis.slack import (
    SensitivityReport,
    sensitivity_report,
    wcet_margin,
)

__all__ = [
    "CoreAnalysis",
    "EntryResult",
    "assignment_schedulable",
    "core_schedulable",
    "entry_response_time",
    "order_entries",
    "response_time",
    "BATCH_STATS",
    "BatchStats",
    "PackingResult",
    "PopulationError",
    "TaskSetPopulation",
    "batch_partition_accept",
    "batch_partition_accept_multi",
    "batch_rta_responses",
    "core_utilizations",
    "STATS",
    "AnalysisStats",
    "CoreAnalysisContext",
    "EdfCoreContext",
    "liu_layland_bound",
    "liu_layland_schedulable",
    "hyperbolic_schedulable",
    "spa_light_threshold",
    "demand_bound",
    "edf_schedulable",
    "edf_utilization_schedulable",
    "global_edf_gfb_schedulable",
    "global_rm_us_schedulable",
    "assignment_schedulable_with_resources",
    "core_schedulable_with_resources",
    "qpa_schedulable",
    "opa_admission",
    "opa_order",
    "opa_schedulable",
    "fp_schedulable_oracle",
    "SensitivityReport",
    "sensitivity_report",
    "wcet_margin",
]
