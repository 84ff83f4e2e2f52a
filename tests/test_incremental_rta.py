"""Incremental analysis engine: oracle agreement, probe dedup, leak fixes.

Four concerns:

* the incremental :class:`~repro.analysis.incremental.CoreAnalysisContext`
  must agree with the untouched per-entry oracle
  (:func:`repro.analysis.rta.core_schedulable`) on every per-entry
  response time and admission verdict, including ``tick_ns > 0`` (the
  ``context-vs-oracle`` differential pair widens this to random
  probe / commit / install / remove / clone / budget-search sequences);
* ``probe_budget`` must evaluate each candidate budget at most once — the
  from-scratch helpers it replaced probed the lower bound twice;
* a failed ``try_split`` must leave the splitter exactly as if the
  attempt never happened — ``body_rank`` used to leak;
* the warm starts must actually save work: a pinned fixed-point
  iteration count fails if the context silently falls back to cold
  fixed points.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    STATS,
    AnalysisStats,
    CoreAnalysisContext,
    EdfCoreContext,
)
from repro.analysis.rta import core_schedulable, order_entries
from repro.experiments.algorithms import build_assignment
from repro.model.assignment import Entry, EntryKind
from repro.model.generator import TaskSetGenerator
from repro.model.split import Subtask
from repro.model.task import Task
from repro.model.time import MS
from repro.semipart.cd_split import CdSplitConfig, _CdSplitter
from repro.semipart.fpts import FptsConfig, _Splitter
from repro.verify import assignment_to_canonical


def _normal_entry(task: Task, core: int = 0) -> Entry:
    return Entry(
        kind=EntryKind.NORMAL,
        task=task,
        core=core,
        budget=task.wcet,
        deadline=task.deadline,
    )


# ---------------------------------------------------------------------------
# Incremental context vs the per-entry oracle
# ---------------------------------------------------------------------------


@pytest.mark.fuzz
@pytest.mark.parametrize("tick_ns", [0, 100_000])
def test_context_matches_rta_oracle(tick_ns):
    """Probe/commit through the context; every admission verdict and
    every final response time must match ``core_schedulable``."""
    for trial in range(20):
        rng = random.Random(4200 + trial)
        taskset = TaskSetGenerator(
            n_tasks=rng.randint(3, 8),
            seed=rng.randint(0, 10**6),
            period_min=5 * MS,
            period_max=100 * MS,
        ).generate(rng.uniform(0.5, 0.95))
        taskset = taskset.assign_rate_monotonic()

        ctx = CoreAnalysisContext(tick_ns=tick_ns)
        accepted = []
        for task in taskset:
            entry = _normal_entry(task)
            response = ctx.probe(entry)
            candidate = core_schedulable(accepted + [entry], tick_ns=tick_ns)
            assert (response is not None) == candidate.schedulable, (
                f"trial {trial}: verdict diverged for {task.name}"
            )
            if response is None:
                continue
            assert response == candidate.response_of(entry.name)
            ctx.commit(entry)
            accepted.append(entry)

        oracle = core_schedulable(accepted, tick_ns=tick_ns)
        assert oracle.schedulable
        for entry, response in ctx.responses():
            assert response == oracle.response_of(entry.name), (
                f"trial {trial}: response diverged for {entry.name}"
            )


# ---------------------------------------------------------------------------
# probe_budget: each candidate budget evaluated at most once
# ---------------------------------------------------------------------------


def _spy_probe(ctx, seen):
    original = ctx.probe

    def probe(entry, warm=None):
        seen.append(entry.budget)
        return original(entry, warm=warm)

    ctx.probe = probe


def test_rta_probe_budget_probes_each_budget_once():
    stats = AnalysisStats()
    ctx = CoreAnalysisContext(stats=stats)
    resident = Task("r", wcet=5 * MS, period=10 * MS).with_priority(0)
    ctx.install(_normal_entry(resident))

    task = Task("s", wcet=9 * MS, period=10 * MS).with_priority(1)
    seen = []
    _spy_probe(ctx, seen)

    def build(b):
        return Entry(
            kind=EntryKind.BODY,
            task=task,
            core=0,
            budget=b,
            subtask=Subtask(
                task=task, index=0, core=0, budget=b, total_subtasks=2
            ),
            deadline=b,
            body_rank=0,
        )

    best, response = ctx.probe_budget(1, 9 * MS - 1, build)
    # Resident leaves 5 ms spare and the body runs at top priority with
    # deadline == budget, so the largest feasible budget is exactly 5 ms.
    assert best == 5 * MS
    assert response == 5 * MS
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen[0] == 1 and seen.count(1) == 1  # lo probed exactly once
    assert stats.probes == len(seen)
    assert stats.budget_searches == 1


def test_edf_probe_budget_probes_each_budget_once():
    stats = AnalysisStats()
    ctx = EdfCoreContext(stats=stats)
    resident = Task("r", wcet=5 * MS, period=10 * MS).with_priority(0)
    ctx.install(_normal_entry(resident))

    task = Task("s", wcet=9 * MS, period=10 * MS).with_priority(1)
    seen = []
    _spy_probe(ctx, seen)

    def build(c):
        return Entry(
            kind=EntryKind.BODY,
            task=task,
            core=0,
            budget=c,
            subtask=Subtask(
                task=task, index=0, core=0, budget=c, total_subtasks=2
            ),
            deadline=c,  # C=D chunk
            body_rank=0,
        )

    best, verdict = ctx.probe_budget(1, 9 * MS - 1, build)
    assert best == 5 * MS  # dbf at t=10ms: c + 5ms <= 10ms
    assert verdict == 1
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen[0] == 1 and seen.count(1) == 1
    assert stats.probes == len(seen)


def test_fpts_max_body_budget_no_duplicate_probe():
    """The satellite bug: ``_max_body_budget`` used to run RTA on the
    minimum chunk twice (feasibility check, then again for the response)."""
    splitter = _Splitter(1, FptsConfig(min_chunk=1))
    ctx = splitter.contexts[0]
    ctx.install(_normal_entry(Task("r", wcet=5, period=10).with_priority(0)))
    seen = []
    _spy_probe(ctx, seen)
    task = Task("s", wcet=9, period=10).with_priority(1)
    budget, response = splitter._max_body_budget(
        task, core=0, index=0, rank=0, remaining=9, cumulative_bound=0
    )
    assert budget == 5 and response == 5
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen.count(1) == 1


def test_cd_split_max_chunk_no_duplicate_probe():
    splitter = _CdSplitter(1, CdSplitConfig(min_chunk=1))
    ctx = splitter.contexts[0]
    ctx.install(_normal_entry(Task("r", wcet=5, period=10).with_priority(0)))
    seen = []
    _spy_probe(ctx, seen)
    task = Task("s", wcet=9, period=10).with_priority(1)
    chunk = splitter._max_chunk(
        task, core=0, index=0, rank=0, remaining=9, consumed_deadline=0
    )
    assert chunk == 5
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen.count(1) == 1


# ---------------------------------------------------------------------------
# try_split state leak: a failed attempt must be a perfect no-op
# ---------------------------------------------------------------------------


def _context_state(ctx):
    state = {
        "entries": list(ctx.entries),
        "utilization": ctx.utilization,
    }
    for attr in ("_keys", "_triples", "_responses"):
        if hasattr(ctx, attr):
            state[attr] = list(getattr(ctx, attr))
    return state


def test_fpts_failed_split_leaves_splitter_untouched():
    """Bodies are provisionally placed on both cores before the attempt
    runs out of cores; the failure must roll everything back —
    ``body_rank`` used to stay advanced (the state-leak bug)."""
    splitter = _Splitter(2, FptsConfig(min_chunk=1))
    # wcet 6 of 10: first-fit puts exactly one resident per core.
    assert splitter.try_whole(Task("a", wcet=6, period=10).with_priority(0))
    assert splitter.try_whole(Task("b", wcet=6, period=10).with_priority(1))
    before_rank = splitter.body_rank
    before = [_context_state(ctx) for ctx in splitter.contexts]

    stats_before = STATS.snapshot()
    ok = splitter.try_split(Task("c", wcet=9, period=10).with_priority(2))
    assert not ok
    # The attempt really did place provisional bodies (it probed budgets
    # on both cores), so the rollback below is meaningful.
    assert STATS.snapshot()["budget_searches"] >= stats_before["budget_searches"] + 2

    assert splitter.body_rank == before_rank
    assert splitter.splits == []
    for ctx, snap in zip(splitter.contexts, before):
        assert _context_state(ctx) == snap


def test_cd_split_failed_split_leaves_splitter_untouched():
    splitter = _CdSplitter(2, CdSplitConfig(min_chunk=1))
    assert splitter.try_whole(Task("a", wcet=6, period=10).with_priority(0))
    assert splitter.try_whole(Task("b", wcet=6, period=10).with_priority(1))
    before_rank = splitter.body_rank
    before = [_context_state(ctx) for ctx in splitter.contexts]

    ok = splitter.try_split(Task("c", wcet=9, period=10).with_priority(2))
    assert not ok

    assert splitter.body_rank == before_rank
    assert splitter.splits == []
    for ctx, snap in zip(splitter.contexts, before):
        assert _context_state(ctx) == snap


def test_fpts_partition_unaffected_by_prior_failed_split():
    """End-to-end: rejecting one task set must not perturb a subsequent
    partition run through the same splitter-visible state (fresh
    splitters each call — this pins the *absence* of cross-run leaks by
    comparing against a never-failed control run)."""
    hard = (
        TaskSetGenerator(n_tasks=9, seed=77, period_min=5 * MS, period_max=50 * MS)
        .generate(3.9)
        .assign_rate_monotonic()
    )
    easy = (
        TaskSetGenerator(n_tasks=6, seed=78, period_min=5 * MS, period_max=50 * MS)
        .generate(2.2)
        .assign_rate_monotonic()
    )
    control = build_assignment("FP-TS", easy, 4)
    build_assignment("FP-TS", hard, 4)  # may well be rejected
    after = build_assignment("FP-TS", easy, 4)
    assert assignment_to_canonical(after) == assignment_to_canonical(control)


# ---------------------------------------------------------------------------
# Work counters: the incremental engine must actually do less work
# ---------------------------------------------------------------------------


def test_incremental_does_fewer_fixpoint_iterations():
    """Pinned work for one FP-TS run.  The deleted cold-start context
    needed 151 fixed-point iterations for the same 33 probes, so a silent
    fallback to cold fixed points fails here."""
    taskset = (
        TaskSetGenerator(
            n_tasks=12, seed=5, period_min=5 * MS, period_max=100 * MS
        )
        .generate(3.2)
        .assign_rate_monotonic()
    )
    STATS.reset()
    assert build_assignment("FP-TS", taskset, 4) is not None
    work = STATS.snapshot()
    STATS.reset()
    assert work["probes"] == 33
    assert work["fixpoint_iterations"] == 68


def test_record_analysis_stats_publishes_ana_counters():
    from repro.metrics import MetricsRegistry, record_analysis_stats

    stats = AnalysisStats()
    ctx = CoreAnalysisContext(stats=stats)
    entry = _normal_entry(Task("a", wcet=3, period=10).with_priority(0))
    assert ctx.probe(entry) is not None
    ctx.commit(entry)

    registry = MetricsRegistry()
    record_analysis_stats(registry, stats)
    assert registry.value("ana_rta_probes_total") == stats.probes
    assert (
        registry.value("ana_fixpoint_iterations_total")
        == stats.fixpoint_iterations
    )
    assert registry.value("ana_budget_searches_total") == 0
    assert registry.value("ana_edf_tests_total") == 0
