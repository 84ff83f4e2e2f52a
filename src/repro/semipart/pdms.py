"""PDMS_HPTS — Partitioned Deadline-Monotonic Scheduling with Highest
Priority Task Splitting (Lakshmanan, Rajkumar & Lehoczky, 2009).

A different member of the semi-partitioned family than FP-TS: processors
are filled **sequentially** (next-fit) with tasks in decreasing-utilization
order, and when a processor overflows, the task split is the **highest
priority task** resident there (shortest period under RM) rather than the
overflowing task.  The insight: the highest-priority task's body suffers
no local interference, so its split pieces have perfectly predictable
response times and the split penalty is minimal — this is what gives the
algorithm its 65 %/69.3 % utilization bounds.

Our implementation uses exact RTA throughout (the "average-case-strong"
variant, mirroring our FP-TS):

1. fill the current processor first-fit-style until a task fails its RTA
   admission there;
2. split the shortest-period task among {residents + the failing task}:
   the largest body chunk the processor can keep (binary search with full
   RTA), the remainder continuing to the *next* processor as a task with
   release jitter and a reduced deadline (it may be placed whole or split
   again);
3. move to the next processor and continue.

Entries and split bookkeeping follow the same conventions as FP-TS, so
the produced assignments drive the analysis and kernel simulator directly.

Admission runs on per-core analysis contexts from
:mod:`repro.analysis.incremental` (memoized RTA).  The speculative core
rebuild of a split attempt happens on a *clone* of the core's context,
adopted only when the attempt succeeds; victim selection uses a
placement-order shadow list (the order of first placement, not the
context's priority order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.incremental import CoreAnalysisContext
from repro.analysis.rta import order_entries
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.split import SplitTask, Subtask
from repro.model.task import Task
from repro.model.taskset import TaskSet


@dataclass(frozen=True)
class PdmsConfig:
    """Tunables; see :class:`repro.semipart.fpts.FptsConfig` for the cost
    semantics (analysis-side charges per migration boundary)."""

    split_cost: int = 0  # destination-side charge per arriving piece
    split_cost_out: int = 0  # source-side charge per body piece
    min_chunk: int = 1000

    def __post_init__(self) -> None:
        if self.split_cost < 0 or self.split_cost_out < 0:
            raise ValueError("costs must be non-negative")
        if self.min_chunk < 1:
            raise ValueError("min_chunk must be at least 1 ns")


@dataclass
class _Piece:
    """A (possibly partial) task waiting to be placed."""

    task: Task
    remaining: int
    index: int  # next subtask index
    jitter: int  # cumulative completion bound of earlier pieces
    placed: List[Tuple[int, int]]  # (core, budget) already committed
    entries: List[Entry]

    @property
    def is_whole(self) -> bool:
        return self.index == 0


def _analysis_budget(entry: Entry, config: PdmsConfig) -> int:
    extra = 0
    if entry.subtask is not None:
        if entry.subtask.index >= 1:
            extra += config.split_cost
        if entry.kind == EntryKind.BODY:
            extra += config.split_cost_out
    return entry.budget + extra


def _entry_for(piece: _Piece, core: int, config: PdmsConfig) -> Entry:
    """Entry placing the piece's entire remainder on ``core``."""
    if piece.is_whole:
        return Entry(
            kind=EntryKind.NORMAL,
            task=piece.task,
            core=core,
            budget=piece.remaining,
            deadline=piece.task.deadline,
        )
    sub = Subtask(
        task=piece.task,
        index=piece.index,
        core=core,
        budget=piece.remaining,
        total_subtasks=piece.index + 1,
    )
    return Entry(
        kind=EntryKind.TAIL,
        task=piece.task,
        core=core,
        budget=piece.remaining,
        subtask=sub,
        deadline=piece.task.deadline - piece.jitter,
        jitter=piece.jitter,
    )


class _PdmsState:
    def __init__(self, n_cores: int, config: PdmsConfig) -> None:
        self.config = config
        self.contexts = [
            CoreAnalysisContext(
                budget_fn=lambda e: _analysis_budget(e, config)
            )
            for _ in range(n_cores)
        ]
        # Placement-order view of each core (victim selection uses the
        # position of first placement, not a context's internal order).
        self.placed_order: List[List[Entry]] = [[] for _ in range(n_cores)]
        self.body_rank = 0
        self.splits: List[_Piece] = []

    def try_place(self, piece: _Piece, core: int) -> bool:
        entry = _entry_for(piece, core, self.config)
        if entry.deadline < entry.budget + (
            self.config.split_cost if piece.index >= 1 else 0
        ):
            return False
        if self.contexts[core].probe(entry) is None:
            return False
        self.contexts[core].commit(entry)
        self.placed_order[core].append(entry)
        piece.placed.append((core, piece.remaining))
        piece.entries.append(entry)
        piece.remaining = 0
        return True

    def split_highest_priority(
        self, core: int, incoming: _Piece
    ) -> Optional[_Piece]:
        """Split the shortest-period whole task among residents+incoming on
        ``core``; returns the continuation piece for the next processor, or
        None if no useful split exists."""
        config = self.config
        # Candidates: whole NORMAL residents and the incoming whole piece.
        candidates: List[Tuple[int, Optional[int]]] = []
        for position, entry in enumerate(self.placed_order[core]):
            if entry.kind == EntryKind.NORMAL:
                candidates.append((entry.task.period, position))
        if incoming.is_whole:
            candidates.append((incoming.task.period, None))
        if not candidates:
            return None
        candidates.sort(key=lambda c: c[0])
        _period, position = candidates[0]

        # Speculate on a clone; adopt it only if the split succeeds.
        work = self.contexts[core].clone()
        if position is None:
            victim_task = incoming.task
            incoming_entry = None
        else:
            victim_entry = self.placed_order[core][position]
            victim_task = victim_entry.task
            # The incoming task stays whole and takes the victim's place.
            work.remove(victim_entry)
            incoming_entry = _entry_for(incoming, core, config)
            work.install(incoming_entry)

        remaining = victim_task.wcet

        def build(b: int) -> Optional[Entry]:
            limit = victim_task.deadline - (remaining - b) - config.split_cost
            if limit < b:
                return None
            sub = Subtask(
                task=victim_task,
                index=0,
                core=core,
                budget=b,
                total_subtasks=2,
            )
            return Entry(
                kind=EntryKind.BODY,
                task=victim_task,
                core=core,
                budget=b,
                subtask=sub,
                deadline=limit,
                jitter=0,
                body_rank=self.body_rank,
            )

        best, best_response = work.probe_budget(
            config.min_chunk, remaining - 1, build
        )
        if best is None:
            return None

        # Commit: adopt the speculative core with the body installed.
        body_sub = Subtask(
            task=victim_task,
            index=0,
            core=core,
            budget=best,
            total_subtasks=2,
        )
        body_entry = Entry(
            kind=EntryKind.BODY,
            task=victim_task,
            core=core,
            budget=best,
            subtask=body_sub,
            deadline=best_response,
            jitter=0,
            body_rank=self.body_rank,
        )
        self.body_rank += 1
        work.install(body_entry, best_response)
        self.contexts[core] = work
        if position is None:
            # Incoming task is the victim: its body stays, residents keep.
            self.placed_order[core].append(body_entry)
        else:
            self.placed_order[core][position] = body_entry
            self.placed_order[core].append(incoming_entry)
            incoming.placed.append((core, incoming.remaining))
            incoming.entries.append(incoming_entry)
            incoming.remaining = 0
        continuation = _Piece(
            task=victim_task,
            remaining=victim_task.wcet - best,
            index=1,
            jitter=best_response,
            placed=[(core, best)],
            entries=[body_entry],
        )
        self.splits.append(continuation)
        return continuation


def pdms_hpts_partition(
    taskset: TaskSet,
    n_cores: int,
    config: PdmsConfig = PdmsConfig(),
) -> Optional[Assignment]:
    """PDMS_HPTS partitioning; returns None when infeasible.

    >>> from repro.model import Task, TaskSet
    >>> ts = TaskSet([
    ...     Task("a", wcet=6, period=10),
    ...     Task("b", wcet=6, period=10),
    ...     Task("c", wcet=6, period=10),
    ... ]).assign_rate_monotonic()
    >>> assignment = pdms_hpts_partition(ts, 2, PdmsConfig(min_chunk=1))
    >>> assignment is not None and assignment.n_split_tasks == 1
    True
    """
    for task in taskset:
        if task.priority is None:
            raise ValueError(
                f"task {task.name} has no priority; call "
                "assign_rate_monotonic() first"
            )
    # Exact, as in fpts_partition: RTA-feasible cores have U <= 1 and
    # the pieces of a task sum to at least its WCET, so accepted sets
    # have U <= m; correctly rounded quotients and fsum err by a factor
    # < 1 + 1e-12.
    utilization = math.fsum(task.utilization for task in taskset)
    if utilization > n_cores * (1 + 1e-12):
        return None
    state = _PdmsState(n_cores, config)
    queue: List[_Piece] = [
        _Piece(
            task=task,
            remaining=task.wcet,
            index=0,
            jitter=0,
            placed=[],
            entries=[],
        )
        for task in taskset.sorted_by_utilization(descending=True)
    ]
    current_core = 0  # processors before this one are closed (full)

    while queue:
        piece = queue.pop(0)
        # (1) place the piece whole on any open processor.
        if any(
            state.try_place(piece, core)
            for core in range(current_core, n_cores)
        ):
            continue
        # (2) overflow: split the highest-priority whole task on the
        # current processor (possibly the piece itself), close the
        # processor, and queue the continuation.
        continuation = None
        if current_core < n_cores:
            continuation = state.split_highest_priority(current_core, piece)
        if continuation is None:
            # No useful split here: close the processor and retry the
            # piece on later ones (it failed *this* core's admission, but
            # the failure may have been local).
            current_core += 1
            if current_core >= n_cores:
                return None
            queue.insert(0, piece)
            continue
        current_core += 1
        if piece.remaining > 0 and continuation.task.name != piece.task.name:
            # Defensive: the split must have absorbed the incoming piece.
            return None  # pragma: no cover
        queue.insert(0, continuation)
        if current_core >= n_cores and queue:
            return None

    assignment = Assignment(n_cores)
    for ctx in state.contexts:
        for local_priority, entry in enumerate(order_entries(ctx.entries)):
            entry.local_priority = local_priority
            assignment.add_entry(entry)
    # Register split tasks.
    by_task: dict = {}
    for entry in assignment.entries():
        if entry.subtask is not None:
            by_task.setdefault(entry.task.name, []).append(entry)
    for name, entries in by_task.items():
        entries.sort(key=lambda e: e.subtask.index)
        split = SplitTask.build(
            entries[0].task,
            [(e.core, e.budget) for e in entries],
        )
        assignment.register_split(split)
    assignment.validate()
    return assignment
