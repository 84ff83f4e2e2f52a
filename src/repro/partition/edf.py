"""Partitioned EDF (extension, DESIGN.md §7).

Same bin-packing heuristics as the fixed-priority side, with per-core
admission by the exact uniprocessor EDF test (processor-demand analysis;
for implicit deadlines this degenerates to ``U <= 1``, making partitioned
EDF strictly more permissive than partitioned RM — the classic gap the
comparison benches show).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.edf import edf_schedulable
from repro.analysis.incremental import EdfCoreContext
from repro.model.assignment import Assignment, Entry
from repro.model.taskset import TaskSet
from repro.partition.heuristics import Placement, partition_taskset


def edf_admission(entries: Sequence[Entry]) -> bool:
    """Exact EDF admission on one core."""
    return edf_schedulable(
        [(entry.budget, entry.period, entry.deadline) for entry in entries]
    )


# Context-backed admission for partition_taskset: cached resident triples
# between probes.  No C<=D pre-check — the plain test above has none.
edf_admission.context_factory = lambda: EdfCoreContext(precheck_cd=False)


def partition_edf(
    taskset: TaskSet,
    n_cores: int,
    placement: Placement = Placement.FIRST_FIT,
) -> Optional[Assignment]:
    """Partition for per-core EDF scheduling.

    Priorities must still be assigned (they order the entries for the
    shared bookkeeping) but play no role in the admission decision or at
    run time — simulate the result with ``KernelSim(..., policy="edf")``.
    """
    return partition_taskset(taskset, n_cores, placement, edf_admission)


def partition_edf_first_fit(
    taskset: TaskSet, n_cores: int
) -> Optional[Assignment]:
    return partition_edf(taskset, n_cores, Placement.FIRST_FIT)


def partition_edf_worst_fit(
    taskset: TaskSet, n_cores: int
) -> Optional[Assignment]:
    return partition_edf(taskset, n_cores, Placement.WORST_FIT)
