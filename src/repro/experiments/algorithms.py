"""Algorithm registry with uniform overhead-aware acceptance semantics.

Every algorithm is exposed as: *given a (raw) rate-monotonic task set, a
core count and an overhead model, does the overhead-aware schedulability
analysis accept the set, and what assignment does it produce?*

Overheads enter exactly as Section 4 of the paper describes — folded into
the analysis:

* every task's WCET is inflated by the per-job charge
  (:func:`repro.overhead.accounting.per_job_overhead`);
* FP-TS additionally reserves the per-migration charge for every subtask
  boundary it creates (``FptsConfig.split_cost``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.batch import (
    BATCH_STATS,
    BatchStats,
    PopulationError,
    TaskSetPopulation,
    batch_partition_accept_multi,
)
from repro.analysis.global_bounds import (
    global_edf_gfb_schedulable,
    global_rm_us_schedulable,
)
from repro.model.assignment import Assignment
from repro.model.taskset import TaskSet
from repro.overhead.accounting import inflate_taskset
from repro.overhead.model import OverheadModel
from repro.partition.edf import partition_edf_first_fit
from repro.partition.heuristics import (
    partition_best_fit_decreasing,
    partition_first_fit_decreasing,
    partition_next_fit_decreasing,
    partition_worst_fit_decreasing,
)
from repro.semipart.cd_split import CdSplitConfig, cd_split_partition
from repro.semipart.fpts import FptsConfig, fpts_partition
from repro.semipart.pdms import PdmsConfig, pdms_hpts_partition
from repro.semipart.spa import spa1_partition, spa2_partition

# (taskset, n_cores, model) -> assignment or None
PartitionFn = Callable[..., Optional[Assignment]]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered scheduling algorithm."""

    name: str
    kind: str  # "partitioned" | "semi-partitioned" | "global"
    fn: PartitionFn
    description: str
    #: Scheduling class the simulator should run this algorithm's
    #: assignments under (:data:`repro.kernel.sched_class.SCHED_CLASSES`
    #: registry name).  EDF-side partitioners need deadline-keyed ready
    #: queues; the global tests route through
    #: :func:`repro.kernel.global_sim.build_global_assignment` and a
    #: shared-queue class.
    sched_class: str = "fp"


def _with_inflation(
    partition: Callable[..., Optional[Assignment]],
) -> PartitionFn:
    def run(
        taskset: TaskSet, n_cores: int, model: OverheadModel
    ) -> Optional[Assignment]:
        return partition(inflate_taskset(taskset, model), n_cores)

    return run


def _global_edf(taskset: TaskSet, n_cores: int) -> Optional[Assignment]:
    """GFB acceptance; returns a placeholder assignment (global scheduling
    produces no partition — simulate with :class:`repro.kernel.GlobalSim`).
    """
    if global_edf_gfb_schedulable(taskset, n_cores):
        return Assignment(n_cores)
    return None


def _global_rm(taskset: TaskSet, n_cores: int) -> Optional[Assignment]:
    """RM-US acceptance; placeholder assignment as for ``_global_edf``."""
    if global_rm_us_schedulable(taskset, n_cores):
        return Assignment(n_cores)
    return None


def _fpts(
    taskset: TaskSet, n_cores: int, model: OverheadModel
) -> Optional[Assignment]:
    inflated = inflate_taskset(taskset, model)
    max_wss = max((task.wss for task in taskset), default=0)
    return fpts_partition(
        inflated,
        n_cores,
        FptsConfig.from_model(model, cpmd_wss=max_wss),
    )


def _cd_split(
    taskset: TaskSet, n_cores: int, model: OverheadModel
) -> Optional[Assignment]:
    inflated = inflate_taskset(taskset, model)
    max_wss = max((task.wss for task in taskset), default=0)
    return cd_split_partition(
        inflated,
        n_cores,
        CdSplitConfig.from_model(model, cpmd_wss=max_wss),
    )


def _pdms(
    taskset: TaskSet, n_cores: int, model: OverheadModel
) -> Optional[Assignment]:
    from repro.overhead.accounting import (
        migration_in_overhead,
        migration_out_overhead,
    )

    inflated = inflate_taskset(taskset, model)
    max_wss = max((task.wss for task in taskset), default=0)
    config = PdmsConfig(
        split_cost=migration_in_overhead(model, max_wss),
        split_cost_out=migration_out_overhead(model),
    )
    return pdms_hpts_partition(inflated, n_cores, config)


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "FP-TS": AlgorithmSpec(
        name="FP-TS",
        kind="semi-partitioned",
        fn=_fpts,
        description=(
            "Fixed-priority semi-partitioned scheduling with RTA-based "
            "task splitting (the algorithm the paper implements)"
        ),
    ),
    "FFD": AlgorithmSpec(
        name="FFD",
        kind="partitioned",
        fn=_with_inflation(partition_first_fit_decreasing),
        description="First-fit decreasing partitioned RM (paper baseline)",
    ),
    "WFD": AlgorithmSpec(
        name="WFD",
        kind="partitioned",
        fn=_with_inflation(partition_worst_fit_decreasing),
        description="Worst-fit decreasing partitioned RM (paper baseline)",
    ),
    "BFD": AlgorithmSpec(
        name="BFD",
        kind="partitioned",
        fn=_with_inflation(partition_best_fit_decreasing),
        description="Best-fit decreasing partitioned RM (extension)",
    ),
    "NFD": AlgorithmSpec(
        name="NFD",
        kind="partitioned",
        fn=_with_inflation(partition_next_fit_decreasing),
        description="Next-fit decreasing partitioned RM (extension)",
    ),
    "SPA1": AlgorithmSpec(
        name="SPA1",
        kind="semi-partitioned",
        fn=_with_inflation(spa1_partition),
        description=(
            "Utilization-bound semi-partitioning, light tasks only "
            "(Guan et al. RTAS'10, reconstruction)"
        ),
    ),
    "SPA2": AlgorithmSpec(
        name="SPA2",
        kind="semi-partitioned",
        fn=_with_inflation(spa2_partition),
        description=(
            "Utilization-bound semi-partitioning with heavy-task "
            "pre-assignment (Guan et al. RTAS'10, reconstruction)"
        ),
    ),
    "PDMS": AlgorithmSpec(
        name="PDMS",
        kind="semi-partitioned",
        fn=_pdms,
        description=(
            "Highest-priority task splitting (PDMS_HPTS, Lakshmanan et "
            "al. 2009, extension)"
        ),
    ),
    "C=D": AlgorithmSpec(
        name="C=D",
        kind="semi-partitioned",
        fn=_cd_split,
        description=(
            "Semi-partitioned EDF with C=D task splitting "
            "(Burns et al. 2012, extension)"
        ),
        sched_class="edf",
    ),
    "P-EDF": AlgorithmSpec(
        name="P-EDF",
        kind="partitioned",
        fn=_with_inflation(partition_edf_first_fit),
        description=(
            "Partitioned EDF, first-fit decreasing, exact demand-bound "
            "admission (extension)"
        ),
        sched_class="edf",
    ),
    "G-EDF": AlgorithmSpec(
        name="G-EDF",
        kind="global",
        fn=_with_inflation(_global_edf),
        description="Global EDF, GFB density test (extension baseline)",
        sched_class="global-edf",
    ),
    "G-RM": AlgorithmSpec(
        name="G-RM",
        kind="global",
        fn=_with_inflation(_global_rm),
        description=(
            "Global fixed-priority, RM-US[m/(3m-2)] utilization test "
            "(extension baseline)"
        ),
        sched_class="global-rm",
    ),
}


def build_assignment(
    algorithm: str,
    taskset: TaskSet,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
) -> Optional[Assignment]:
    """Run ``algorithm`` and return its assignment (None = rejected)."""
    try:
        spec = ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        ) from None
    return spec.fn(taskset, n_cores, model)


def accept(
    algorithm: str,
    taskset: TaskSet,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
) -> bool:
    """True iff the overhead-aware analysis accepts the task set."""
    return build_assignment(algorithm, taskset, n_cores, model) is not None


#: Algorithms the batch layer can express: plain decreasing-utilization
#: bin packing, mapped to (placement, admission).  FP-TS is answered
#: partly from the FFD row (see :func:`accept_populations`); the other
#: splitting algorithms (SPA*, PDMS, C=D) and the global tests stay
#: scalar.
BATCH_ALGORITHMS: Dict[str, Tuple[str, str]] = {
    "FFD": ("first-fit", "rta"),
    "WFD": ("worst-fit", "rta"),
    "BFD": ("best-fit", "rta"),
    "NFD": ("next-fit", "rta"),
    "P-EDF": ("first-fit", "edf"),
}


def accept_population(
    algorithm: str,
    population: TaskSetPopulation,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
    batch: bool = True,
    stats: Optional[BatchStats] = None,
) -> List[bool]:
    """Accept/reject vector of ``algorithm`` over a whole population
    (one-algorithm form of :func:`accept_populations`)."""
    return accept_populations(
        [algorithm], population, n_cores, model=model, batch=batch,
        stats=stats,
    )[algorithm]


def accept_populations(
    algorithms: List[str],
    population: TaskSetPopulation,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
    batch: bool = True,
    stats: Optional[BatchStats] = None,
) -> Dict[str, List[bool]]:
    """Accept/reject vectors of several algorithms over one population.

    With ``batch=True`` the algorithms in :data:`BATCH_ALGORITHMS` share
    a single packing pass through
    :func:`repro.analysis.batch.batch_partition_accept_multi` — the
    per-step vectorized probes cover every algorithm's rows at once, so
    asking five heuristics costs far less than five separate sweeps.

    FP-TS rides on the same pass: its whole-task phase is exactly FFD
    (same inflation, same decreasing-(utilization, name) order, same
    first-fit RTA probes), so every lane FFD accepts is an FP-TS accept
    with FFD's assignment, and only the lanes FFD rejects run the scalar
    split search.  The FFD row is computed for this even when FFD was
    not requested.

    Everything else — ``batch=False``, non-batchable algorithms, and
    populations the batch layer cannot express (non-rate-monotonic
    priority order; counted in ``scalar_fallbacks`` per requested
    batched algorithm and lane) — runs scalar :func:`accept` lane by
    lane.  Verdicts are bit-identical either way (the batch-vs-scalar
    differential pair enforces this continuously).
    """
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{sorted(ALGORITHMS)}"
            )
    batched = [
        a for a in algorithms
        if batch and (a in BATCH_ALGORITHMS or a == "FP-TS")
    ]
    rows: Dict[str, List[bool]] = {}
    if batched:
        configs = list(dict.fromkeys(
            "FFD" if a == "FP-TS" else a for a in batched
        ))
        try:
            matrix = batch_partition_accept_multi(
                population,
                n_cores,
                model=model,
                configs=[BATCH_ALGORITHMS[a] for a in configs],
                stats=stats,
            )
            rows = {
                a: [bool(v) for v in row] for a, row in zip(configs, matrix)
            }
        except PopulationError:
            tracker = stats if stats is not None else BATCH_STATS
            tracker.scalar_fallbacks += population.n_sets * len(batched)
    tasksets: List[TaskSet] = []
    out: Dict[str, List[bool]] = {}
    for algorithm in algorithms:
        if algorithm == "FP-TS" and "FFD" in rows:
            verdicts = list(rows["FFD"])
            rejected = [lane for lane, ok in enumerate(verdicts) if not ok]
            for lane, taskset in zip(
                rejected, population.tasksets(rejected)
            ):
                verdicts[lane] = accept(algorithm, taskset, n_cores, model)
            out[algorithm] = verdicts
        elif algorithm in rows:
            out[algorithm] = rows[algorithm]
        else:
            tasksets = tasksets or population.tasksets()
            out[algorithm] = [
                accept(algorithm, taskset, n_cores, model=model)
                for taskset in tasksets
            ]
    return out
