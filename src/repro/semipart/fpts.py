"""FP-TS: fixed-priority semi-partitioned scheduling with task splitting.

The algorithm (following the semi-partitioned fixed-priority recipe of the
paper's reference [4]):

1. Sort tasks by decreasing utilization.
2. Try to place each task *whole*, first-fit, admission by exact RTA.
3. If a task fits on no core, **split** it: visit cores in decreasing
   spare-capacity order and

   * first try to place the entire remainder as the **tail** subtask —
     scheduled at the task's RM priority, with release jitter equal to the
     bodies' cumulative completion bound ``S`` and synthetic deadline
     ``D - S``;
   * otherwise give the core the **maximal body budget** it can host (found
     from the time-demand bound and confirmed, or by binary search, each
     candidate checked with exact RTA of the whole core), pinned at the
     top of the core's local priority order, and move on with the rest.

4. Fail only if the remainder survives all cores (or, up front, if the
   total utilization exceeds the core count).

Soundness bookkeeping:

* body subtasks are ordered **above** every normal/tail entry and among
  themselves by creation order, so a body's response-time bound — computed
  the moment it is placed — can never be invalidated by later placements;
* subtask ``j`` carries release jitter ``S_{j-1}`` (sum of the response
  bounds of its predecessors), which inflates the interference it imposes
  on lower-priority residents in all subsequent RTA checks;
* migration overhead is charged *in the analysis*, located on the core
  that physically executes it (see :class:`FptsConfig`): the source-side
  requeue on bodies, the destination-side dispatch + cache reloads on
  arriving subtasks, and the release/completion paths on the first/tail
  subtasks.  Entries and the :class:`~repro.model.split.SplitTask` keep
  the *raw* budgets so the same assignment object can drive the kernel
  simulator.

Admission runs on per-core
:class:`~repro.analysis.incremental.CoreAnalysisContext` instances,
which memoize response times between probes (checked against the
per-entry oracle :mod:`repro.analysis.rta` by the ``context-vs-oracle``
differential pair).  Body ranks are *reserved at commit time*: a failed
split attempt leaves the splitter exactly as if it had never been
tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analysis.incremental import CoreAnalysisContext
from repro.analysis.rta import order_entries
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.split import SplitTask, Subtask
from repro.model.task import Task
from repro.model.taskset import TaskSet


@dataclass(frozen=True)
class FptsConfig:
    """Tunables for the FP-TS partitioner.

    The four cost fields locate the analysis-side overhead charges on the
    core that physically executes them (all in nanoseconds):

    ``split_cost``
        destination-side migration charge, added to every subtask that
        *arrives* by migration (index >= 1): scheduling pass + ``cnt1`` +
        cache reloads;
    ``split_cost_out``
        source-side migration charge, added to every *body* subtask (it
        migrates out when its budget is exhausted): scheduling pass +
        ``cnt2`` with the remote ready-queue insert;
    ``arrival_cost``
        release-path charge pinned on a split task's *first* subtask —
        the per-job WCET inflation cannot say which core pays it, so the
        splitter re-charges it explicitly (a few µs of double counting,
        on the safe side);
    ``completion_cost``
        completion-path charge pinned on *tail* subtasks, same rationale.

    ``min_chunk`` — smallest useful body budget; cores that cannot host at
    least this much are skipped, preventing degenerate micro-splits.
    """

    split_cost: int = 0
    split_cost_out: int = 0
    arrival_cost: int = 0
    completion_cost: int = 0
    min_chunk: int = 1000  # 1 us

    def __post_init__(self) -> None:
        for name in ("split_cost", "split_cost_out", "arrival_cost", "completion_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.min_chunk < 1:
            raise ValueError("min_chunk must be at least 1 ns")

    @property
    def tail_reserve(self) -> int:
        """Charges a yet-to-be-placed tail will carry."""
        return self.split_cost + self.completion_cost

    @staticmethod
    def from_model(model, cpmd_wss: int = 0, min_chunk: int = 1000) -> "FptsConfig":
        """Build the per-core-located charges from an OverheadModel."""
        from repro.overhead.accounting import (
            arrival_overhead,
            completion_overhead,
            migration_in_overhead,
            migration_out_overhead,
        )

        return FptsConfig(
            split_cost=migration_in_overhead(model, cpmd_wss),
            split_cost_out=migration_out_overhead(model),
            arrival_cost=arrival_overhead(model, cpmd_wss),
            completion_cost=completion_overhead(model),
            min_chunk=min_chunk,
        )


def _analysis_budget(entry: Entry, config: FptsConfig) -> int:
    """Entry budget as seen by the analysis (raw + located charges)."""
    sub = entry.subtask
    if sub is None:
        return entry.budget
    extra = 0
    if sub.index >= 1:
        extra += config.split_cost
    else:
        extra += config.arrival_cost
    if entry.kind == EntryKind.BODY:
        extra += config.split_cost_out
    elif entry.kind == EntryKind.TAIL:
        extra += config.completion_cost
    return entry.budget + extra


class _Splitter:
    """Carries the mutable state of one fpts_partition run."""

    def __init__(self, n_cores: int, config: FptsConfig) -> None:
        self.config = config
        budget_fn: Callable[[Entry], int] = lambda e: _analysis_budget(e, config)
        self.contexts = [
            CoreAnalysisContext(budget_fn=budget_fn) for _ in range(n_cores)
        ]
        self.body_rank = 0
        self.splits: List[SplitTask] = []

    @property
    def core_entries(self) -> List[List[Entry]]:
        return [list(ctx.entries) for ctx in self.contexts]

    # -- whole-task placement ------------------------------------------

    def try_whole(self, task: Task) -> bool:
        # One probe entry shared across the scan (analysis inputs are
        # core-independent); the core is stamped on the admitting hit.
        entry = Entry(
            kind=EntryKind.NORMAL,
            task=task,
            core=0,
            budget=task.wcet,
            deadline=task.deadline,
        )
        pre = self.contexts[0].prepare(entry)
        for core, ctx in enumerate(self.contexts):
            if ctx.probe(entry, pre=pre) is not None:
                entry.core = core
                ctx.commit(entry)
                return True
        return False

    # -- splitting ------------------------------------------------------

    def _spare(self, core: int) -> float:
        return 1.0 - self.contexts[core].utilization

    def try_split(self, task: Task) -> bool:
        """Split ``task`` across cores; all splitter state (contexts,
        ``body_rank``) is mutated only on success — a failed attempt
        leaves the splitter identical to never having tried."""
        config = self.config
        remaining = task.wcet
        pieces: List[Tuple[int, int]] = []  # (core, raw budget)
        piece_entries: List[Entry] = []
        piece_responses: List[int] = []
        cumulative_bound = 0  # S: completion bound of bodies so far

        candidates = sorted(
            range(len(self.contexts)), key=self._spare, reverse=True
        )
        for core in candidates:
            ctx = self.contexts[core]
            index = len(pieces)
            # Every piece before the tail is a body, so the provisional
            # rank of the next body is body_rank + index; self.body_rank
            # itself moves only in _commit.
            rank = self.body_rank + index
            # (a) does the whole remainder fit here as the tail?
            tail_deadline = task.deadline - cumulative_bound
            tail_extra = config.tail_reserve if index >= 1 else 0
            if tail_deadline >= remaining + tail_extra:
                tail_sub = Subtask(
                    task=task,
                    index=index,
                    core=core,
                    budget=remaining,
                    total_subtasks=index + 1,
                )
                tail_entry = Entry(
                    kind=EntryKind.TAIL if index >= 1 else EntryKind.NORMAL,
                    task=task,
                    core=core,
                    budget=remaining,
                    subtask=tail_sub if index >= 1 else None,
                    deadline=tail_deadline,
                    jitter=cumulative_bound,
                )
                tail_response = ctx.probe(tail_entry)
                if tail_response is not None:
                    pieces.append((core, remaining))
                    piece_entries.append(tail_entry)
                    piece_responses.append(tail_response)
                    self._commit(task, pieces, piece_entries, piece_responses)
                    return True
            # (b) otherwise: maximal body budget this core can host.
            budget, response = self._max_body_budget(
                task, core, index, rank, remaining, cumulative_bound
            )
            if budget is None:
                continue
            body_sub = Subtask(
                task=task,
                index=index,
                core=core,
                budget=budget,
                total_subtasks=index + 2,  # placeholder; rebuilt on commit
            )
            body_entry = Entry(
                kind=EntryKind.BODY,
                task=task,
                core=core,
                budget=budget,
                subtask=body_sub,
                deadline=response,
                jitter=cumulative_bound,
                body_rank=rank,
            )
            pieces.append((core, budget))
            piece_entries.append(body_entry)
            piece_responses.append(response)
            cumulative_bound += response
            remaining -= budget
        return False

    def _max_body_budget(
        self,
        task: Task,
        core: int,
        index: int,
        rank: int,
        remaining: int,
        cumulative_bound: int,
    ) -> Tuple[Optional[int], Optional[int]]:
        """Largest raw body budget ``b`` this core can host, with its
        verified response bound; (None, None) if even ``min_chunk`` fails.

        Feasibility of ``b`` requires (i) every resident entry still meets
        its deadline with the body added and (ii) the body's own response
        leaves enough deadline for the rest of the task:
        ``S_prev + R(b) + (remaining - b) + tail_reserve <= D`` — i.e. even
        a zero-interference tail must still be able to make it.

        The search lives in the context (``probe_budget``): it confirms
        the time-demand bound's budget with two probes unless (ii) binds,
        and bisects otherwise, probing each budget at most once.
        """
        config = self.config

        def build(b: int) -> Optional[Entry]:
            limit = (
                task.deadline
                - cumulative_bound
                - (remaining - b)
                - config.tail_reserve
            )
            if limit < b:
                return None
            body_sub = Subtask(
                task=task,
                index=index,
                core=core,
                budget=b,
                total_subtasks=index + 2,
            )
            return Entry(
                kind=EntryKind.BODY,
                task=task,
                core=core,
                budget=b,
                subtask=body_sub,
                deadline=limit,
                jitter=cumulative_bound,
                body_rank=rank,
            )

        low = self.config.min_chunk
        high = remaining - 1  # b == remaining would be a tail, handled above
        # The feasible set is downward-closed (see module docstring), so
        # the context's deduplicated binary search applies.
        return self.contexts[core].probe_budget(low, high, build)

    def _commit(
        self,
        task: Task,
        pieces: List[Tuple[int, int]],
        piece_entries: List[Entry],
        piece_responses: List[int],
    ) -> None:
        """Install the split's entries; rebuild subtasks with final count
        and reserve the body ranks the attempt used provisionally."""
        total = len(pieces)
        if total == 1:
            # No split actually happened: the task fit whole on a core that
            # first-fit skipped only because of ordering; place as normal.
            self.contexts[pieces[0][0]].install(
                piece_entries[0], piece_responses[0]
            )
            return
        split = SplitTask.build(task, pieces)
        for entry, sub, response in zip(
            piece_entries, split.subtasks, piece_responses
        ):
            entry.subtask = sub
            entry.kind = EntryKind.TAIL if sub.is_tail else EntryKind.BODY
            if entry.kind == EntryKind.BODY:
                self.body_rank += 1
            self.contexts[entry.core].install(entry, response)
        self.splits.append(split)


def fpts_partition(
    taskset: TaskSet,
    n_cores: int,
    config: FptsConfig = FptsConfig(),
) -> Optional[Assignment]:
    """Partition ``taskset`` with FP-TS; returns ``None`` if infeasible.

    Tasks must carry global (rate-monotonic) priorities.

    >>> from repro.model import Task, TaskSet
    >>> ts = TaskSet([
    ...     Task("a", wcet=6, period=10),
    ...     Task("b", wcet=6, period=10),
    ...     Task("c", wcet=6, period=10),
    ... ]).assign_rate_monotonic()
    >>> assignment = fpts_partition(ts, n_cores=2,
    ...                             config=FptsConfig(min_chunk=1))
    >>> assignment is not None and assignment.n_split_tasks >= 1
    True
    """
    for task in taskset:
        if task.priority is None:
            raise ValueError(
                f"task {task.name} has no priority; call "
                "assign_rate_monotonic() before partitioning"
            )
    # Exact: RTA-feasible cores have U <= 1 (CoreAnalysisContext.probe)
    # and pieces sum to their task's WCET, so accepted sets have U <= m;
    # correctly rounded quotients and fsum err by a factor < 1 + 1e-12.
    utilization = math.fsum(task.utilization for task in taskset)
    if utilization > n_cores * (1 + 1e-12):
        return None
    splitter = _Splitter(n_cores, config)
    for task in taskset.sorted_by_utilization(descending=True):
        if splitter.try_whole(task):
            continue
        if not splitter.try_split(task):
            return None

    assignment = Assignment(n_cores)
    for ctx in splitter.contexts:
        for local_priority, entry in enumerate(order_entries(ctx.entries)):
            entry.local_priority = local_priority
            assignment.add_entry(entry)
    for split in splitter.splits:
        assignment.register_split(split)
    assignment.validate()
    return assignment
