"""Bin-packing partitioning heuristics with pluggable admission tests.

A partitioning heuristic is (ordering, placement, admission):

* **ordering** — the paper's baselines sort tasks by *decreasing size*
  (utilization): the "D" in FFD / WFD;
* **placement** — which admitting core receives the task: first-fit scans
  cores in index order, worst-fit picks the least-utilised admitting core,
  best-fit the most-utilised admitting core, next-fit keeps a moving
  pointer and never looks back;
* **admission** — exact response-time analysis by default (what a real
  acceptance test would run), or the Liu & Layland / hyperbolic utilization
  bounds for the cheaper classic variants.

All heuristics return an :class:`~repro.model.assignment.Assignment` on
success or ``None`` when some task fits on no core — the "bin-packing
waste" failure mode that motivates semi-partitioned scheduling.

Admission tests that expose a ``context_factory`` attribute (the exact
RTA and EDF tests do) run on per-core analysis contexts from
:mod:`repro.analysis.incremental`: probes memoize response times between
candidates instead of re-analyzing the whole core each time.
Plain-callable admission tests (utilization bounds, OPA) keep the
original per-candidate evaluation path.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.bounds import (
    hyperbolic_schedulable,
    liu_layland_schedulable,
)
from repro.analysis.incremental import CoreAnalysisContext
from repro.analysis.rta import core_schedulable
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.task import Task
from repro.model.taskset import TaskSet

AdmissionTest = Callable[[Sequence[Entry]], bool]


def rta_admission(entries: Sequence[Entry]) -> bool:
    """Exact RTA admission: every entry on the core meets its deadline."""
    return core_schedulable(entries).schedulable


# Exact RTA admission runs on an analysis context when partition_taskset
# drives it (incremental memoization; see repro.analysis.incremental).
rta_admission.context_factory = CoreAnalysisContext


def liu_layland_admission(entries: Sequence[Entry]) -> bool:
    """Liu & Layland utilization-bound admission (sufficient only)."""
    return liu_layland_schedulable([entry.utilization for entry in entries])


def hyperbolic_admission(entries: Sequence[Entry]) -> bool:
    """Hyperbolic-bound admission (sufficient only, dominates L&L)."""
    return hyperbolic_schedulable(entry.utilization for entry in entries)


class Placement(Enum):
    FIRST_FIT = "first-fit"
    BEST_FIT = "best-fit"
    WORST_FIT = "worst-fit"
    NEXT_FIT = "next-fit"


def _normal_entry(task: Task, core: int) -> Entry:
    return Entry(
        kind=EntryKind.NORMAL,
        task=task,
        core=core,
        budget=task.wcet,
        deadline=task.deadline,
    )


def partition_taskset(
    taskset: TaskSet,
    n_cores: int,
    placement: Placement = Placement.FIRST_FIT,
    admission: AdmissionTest = rta_admission,
    ordering: Optional[Callable[[Sequence[Entry]], List[Entry]]] = None,
) -> Optional[Assignment]:
    """Partition ``taskset`` onto ``n_cores`` cores, decreasing-utilization
    order.  Returns the assignment, or ``None`` if some task fits nowhere.

    Tasks must already carry global priorities (e.g. rate-monotonic).

    ``ordering`` maps a core's entries to their final local priority order
    (highest first); defaults to the rate-monotonic rule.  An admission
    test that certifies "some order exists" (e.g. OPA) must supply the
    matching ordering so the emitted assignment is the certified one.
    """
    for task in taskset:
        if task.priority is None:
            raise ValueError(
                f"task {task.name} has no priority; call "
                "assign_rate_monotonic() before partitioning"
            )
    assignment = Assignment(n_cores)
    factory = getattr(admission, "context_factory", None)
    next_fit_pointer = 0

    if factory is not None:
        contexts = [factory() for _ in range(n_cores)]
        for task in taskset.sorted_by_utilization(descending=True):
            chosen, entry = _choose_core_with_contexts(
                task, contexts, placement, next_fit_pointer
            )
            if chosen is None:
                return None
            if placement == Placement.NEXT_FIT:
                next_fit_pointer = chosen
            contexts[chosen].commit(entry)
        _finalize(assignment, [list(ctx.entries) for ctx in contexts], ordering)
        return assignment

    core_entries: List[List[Entry]] = [[] for _ in range(n_cores)]
    for task in taskset.sorted_by_utilization(descending=True):
        chosen = _choose_core(
            task, core_entries, placement, admission, next_fit_pointer
        )
        if chosen is None:
            return None
        if placement == Placement.NEXT_FIT:
            next_fit_pointer = chosen
        entry = _normal_entry(task, chosen)
        core_entries[chosen].append(entry)

    _finalize(assignment, core_entries, ordering)
    return assignment


def _choose_core_with_contexts(
    task: Task,
    contexts: List,
    placement: Placement,
    next_fit_pointer: int,
) -> Tuple[Optional[int], Optional[Entry]]:
    """Context-backed core choice; returns the chosen core and the probed
    entry (so the caller's commit reuses the probe's analysis).

    One probe entry is shared across the core scan (its analysis inputs —
    budget, deadline, jitter, priority — are core-independent); ``core``
    is stamped once the placement decides."""
    n_cores = len(contexts)
    entry = _normal_entry(task, core=0)
    pre = contexts[0].prepare(entry)

    if placement in (Placement.FIRST_FIT, Placement.NEXT_FIT):
        start = next_fit_pointer if placement == Placement.NEXT_FIT else 0
        for core in range(start, n_cores):
            if contexts[core].probe(entry, pre=pre) is not None:
                entry.core = core
                return core, entry
        return None, None

    admitting: List[int] = []
    for core in range(n_cores):
        if contexts[core].probe(entry, pre=pre) is not None:
            admitting.append(core)
    if not admitting:
        return None, None
    if placement == Placement.BEST_FIT:
        chosen = max(admitting, key=lambda c: (contexts[c].utilization, -c))
    elif placement == Placement.WORST_FIT:
        chosen = min(admitting, key=lambda c: (contexts[c].utilization, c))
    else:
        raise ValueError(f"unknown placement {placement!r}")
    entry.core = chosen
    return chosen, entry


def _choose_core(
    task: Task,
    core_entries: List[List[Entry]],
    placement: Placement,
    admission: AdmissionTest,
    next_fit_pointer: int,
) -> Optional[int]:
    n_cores = len(core_entries)

    def admits(core: int) -> bool:
        candidate = core_entries[core] + [_normal_entry(task, core)]
        return admission(candidate)

    if placement == Placement.FIRST_FIT:
        for core in range(n_cores):
            if admits(core):
                return core
        return None

    if placement == Placement.NEXT_FIT:
        # Classic next-fit never revisits earlier bins: scan forward from
        # the pointer only.
        for core in range(next_fit_pointer, n_cores):
            if admits(core):
                return core
        return None

    # Best-fit / worst-fit need every admitting core's utilization.
    def core_utilization(core: int) -> float:
        return sum(entry.utilization for entry in core_entries[core])

    admitting = [core for core in range(n_cores) if admits(core)]
    if not admitting:
        return None
    if placement == Placement.BEST_FIT:
        return max(admitting, key=lambda c: (core_utilization(c), -c))
    if placement == Placement.WORST_FIT:
        return min(admitting, key=lambda c: (core_utilization(c), c))
    raise ValueError(f"unknown placement {placement!r}")


def _finalize(
    assignment: Assignment,
    core_entries: List[List[Entry]],
    ordering: Optional[Callable[[Sequence[Entry]], List[Entry]]] = None,
) -> None:
    """Assign local priorities and fill the Assignment."""
    from repro.analysis.rta import order_entries

    order = ordering if ordering is not None else order_entries
    for core, entries in enumerate(core_entries):
        ordered = order(entries)
        if ordered is None or len(ordered) != len(entries):
            raise RuntimeError(
                f"core {core}: ordering failed on an admitted entry set — "
                "admission test and ordering are inconsistent"
            )
        for local_priority, entry in enumerate(ordered):
            entry.local_priority = local_priority
            assignment.add_entry(entry)


# ----------------------------------------------------------------------
# Named convenience wrappers (the algorithms the paper evaluates)
# ----------------------------------------------------------------------


def partition_first_fit_decreasing(
    taskset: TaskSet,
    n_cores: int,
    admission: AdmissionTest = rta_admission,
) -> Optional[Assignment]:
    """FFD — the paper's first baseline."""
    return partition_taskset(taskset, n_cores, Placement.FIRST_FIT, admission)


def partition_worst_fit_decreasing(
    taskset: TaskSet,
    n_cores: int,
    admission: AdmissionTest = rta_admission,
) -> Optional[Assignment]:
    """WFD — the paper's second baseline."""
    return partition_taskset(taskset, n_cores, Placement.WORST_FIT, admission)


def partition_best_fit_decreasing(
    taskset: TaskSet,
    n_cores: int,
    admission: AdmissionTest = rta_admission,
) -> Optional[Assignment]:
    return partition_taskset(taskset, n_cores, Placement.BEST_FIT, admission)


def partition_next_fit_decreasing(
    taskset: TaskSet,
    n_cores: int,
    admission: AdmissionTest = rta_admission,
) -> Optional[Assignment]:
    return partition_taskset(taskset, n_cores, Placement.NEXT_FIT, admission)
