"""Differential cross-checks: independent implementations must agree.

Eight pairs, each exercising a different redundancy in the codebase:

* **sim-vs-oracle** — a zero-overhead :class:`KernelSim` run on one core
  must agree with the analytical time-demand oracle
  (:func:`repro.analysis.oracle.fp_schedulable_oracle`) about whether a
  synchronous periodic FP task set misses a deadline;
* **serial-vs-parallel** — the experiment engine must produce identical
  payloads with ``jobs=1`` and ``jobs=2`` for the same units;
* **tick-vs-event** — when every release instant is a multiple of the
  tick, deferring release processing to tick boundaries is a no-op, so
  tick-driven and event-driven runs must be bit-identical;
* **context-vs-oracle** — the per-core analysis contexts the
  partitioners probe (:mod:`repro.analysis.incremental`) must agree with
  the untouched per-entry oracles (:mod:`repro.analysis.rta`,
  :mod:`repro.analysis.edf`) on every verdict, response and maximal
  budget, over seeded random probe / commit / install / remove / clone /
  budget-search sequences;
* **batch-vs-scalar** — the struct-of-arrays batch kernels
  (:mod:`repro.analysis.batch`) must produce bit-identical accept/reject
  vectors (FP-TS included, via its FFD prefilter) to the scalar
  partitioners on whole populations, and the batched RTA fixed point
  must return the identical integer response times as the scalar
  analyzer on every accepted core;
* **cross-class-sanity** — trace-level laws relating scheduling classes:
  global EDF never leaves a core idle while a job waits in the shared
  ready queue (work conservation, reconstructed from the event log and
  segment trace of a zero-overhead run), and restricted-migration
  semi-partitioning performs at most as many migrations as the
  unrestricted split schedule, per task and in total.
* **replay-vs-synthetic** — replaying a zero-variance trace verbatim
  and synthesizing from its fitted profile at scale 1.0 must produce
  the identical job stream and hence identical admission verdicts
  through the same aperiodic server (the exactness contract of the
  quantile-sketch workload profiles);
* **freq1-vs-unscaled** — an all-ones frequency vector (in every
  spelling: scalar, list, string) must reproduce the pre-DVFS
  simulator bit-for-bit at full-result granularity, produce an equal
  energy ledger, and balance that ledger on both sides.

Every check returns a list of human-readable discrepancy strings; empty
means the pair agrees.  :func:`run_differential_suite` runs all eight.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Dict, List

from repro.model.generator import TaskSetGenerator
from repro.model.time import MS, US
from repro.overhead.model import OverheadModel


def result_to_canonical(result) -> dict:
    """A :class:`SimulationResult` as one JSON-safe, comparable dict.

    Full granularity: counters, per-task statistics, every miss, the
    complete segment trace and event log, and the fault log.  The
    energy ledger is excluded (the frozen pre-plugin matrix
    ``tests/golden/legacy_matrix.json`` predates it); pairs that care
    about it — freq1-vs-unscaled — compare ``result.energy`` explicitly.
    """
    return {
        "duration": result.duration,
        "misses": [asdict(miss) for miss in result.misses],
        "task_stats": {
            name: asdict(stats)
            for name, stats in sorted(result.task_stats.items())
        },
        "busy_ns": list(result.busy_ns),
        "overhead_ns": list(result.overhead_ns),
        "cache_delay_ns": result.cache_delay_ns,
        "context_switches": result.context_switches,
        "preemptions": result.preemptions,
        "migrations": result.migrations,
        "releases": result.releases,
        "trace": [list(segment) for segment in result.trace],
        "events": [list(event) for event in result.events],
        "faults": result.faults.as_dicts(),
    }


def _diff_canonical(a: dict, b: dict, label_a: str, label_b: str) -> List[str]:
    """Field-level differences between two canonical result dicts."""
    diffs: List[str] = []
    for key in a:
        if a[key] != b[key]:
            va, vb = a[key], b[key]
            if isinstance(va, list) and isinstance(vb, list):
                detail = f"{len(va)} vs {len(vb)} entries"
                for i, (x, y) in enumerate(zip(va, vb)):
                    if x != y:
                        detail = f"first diff at [{i}]: {x!r} vs {y!r}"
                        break
            else:
                detail = f"{va!r} vs {vb!r}"
            diffs.append(
                f"{key}: {label_a} != {label_b} ({detail})"
            )
    return diffs


def _single_core_rm_assignment(taskset):
    """All tasks on core 0 in RM priority order — no acceptance test.

    Built by hand (not through an algorithm) precisely so unschedulable
    sets still get simulated and the sim's verdict can be compared with
    the oracle's.
    """
    from repro.model.assignment import Assignment, Entry, EntryKind

    assignment = Assignment(1)
    ordered = sorted(
        taskset, key=lambda t: t.priority if t.priority is not None else 0
    )
    for rank, task in enumerate(ordered):
        assignment.add_entry(
            Entry(
                kind=EntryKind.NORMAL,
                task=task,
                core=0,
                budget=task.wcet,
                local_priority=rank,
            )
        )
    return assignment


def sim_vs_oracle(trials: int = 20, seed: int = 0) -> List[str]:
    """KernelSim (zero overhead) vs. the time-demand schedulability oracle.

    Draws task sets around the RM schedulability boundary so both
    verdicts occur, then asserts: oracle says schedulable ⇔ the
    simulation of the synchronous periodic schedule has no misses.
    """
    from repro.analysis.oracle import fp_schedulable_oracle
    from repro.kernel.sim import KernelSim

    diffs: List[str] = []
    rng = random.Random(seed)
    for trial in range(trials):
        n_tasks = rng.randint(3, 8)
        utilization = rng.uniform(0.7, 1.0)
        generator = TaskSetGenerator(
            n_tasks=n_tasks,
            seed=rng.randint(0, 10**6),
            period_min=5 * MS,
            period_max=50 * MS,
        )
        taskset = generator.generate(utilization)
        ordered = sorted(taskset, key=lambda t: t.priority)
        oracle_verdict = fp_schedulable_oracle(
            [(t.wcet, t.period, t.deadline) for t in ordered]
        )
        assignment = _single_core_rm_assignment(taskset)
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=2 * max(t.period for t in taskset),
        ).run()
        sim_verdict = result.miss_count == 0
        if oracle_verdict != sim_verdict:
            diffs.append(
                f"trial {trial} (U={utilization:.3f}, n={n_tasks}): "
                f"oracle says schedulable={oracle_verdict} but simulation "
                f"has {result.miss_count} miss(es)"
            )
    return diffs


def serial_vs_parallel(seed: int = 0, jobs: int = 2) -> List[str]:
    """ExperimentEngine payloads: in-process vs. process-pool execution."""
    from repro.engine.executor import ExperimentEngine
    from repro.engine.units import AcceptanceUnit

    units = [
        AcceptanceUnit(
            n_cores=2,
            n_tasks=6,
            sets_per_point=4,
            utilization=utilization,
            seed=seed + 7919 * index,
            algorithms=("FP-TS", "FFD", "WFD"),
            overheads=OverheadModel.zero(),
            period_min=5 * MS,
            period_max=100 * MS,
        )
        for index, utilization in enumerate((0.5, 0.7, 0.85))
    ]
    serial = ExperimentEngine(jobs=1).run(units)
    parallel = ExperimentEngine(jobs=jobs).run(units)
    diffs: List[str] = []
    for index, (a, b) in enumerate(zip(serial, parallel)):
        if a != b:
            diffs.append(
                f"unit {index}: serial payload {a!r} != parallel {b!r}"
            )
    return diffs


def _simulate_for_identity(
    seed: int, faults=None, tick_ns: int = 0, sporadic_jitter: int = MS
):
    """One mid-utilization FP-TS run with every stochastic path enabled."""
    from repro.experiments.algorithms import build_assignment
    from repro.kernel.sim import KernelSim

    generator = TaskSetGenerator(
        n_tasks=8, seed=seed, period_min=5 * MS, period_max=50 * MS
    )
    taskset = None
    assignment = None
    for attempt in range(20):
        candidate = generator.generate(0.6 * 2)
        assignment = build_assignment(
            "FP-TS", candidate, 2, OverheadModel.zero()
        )
        if assignment is not None:
            taskset = candidate
            break
    if assignment is None:
        raise RuntimeError(f"no accepted task set from seed {seed}")
    result = KernelSim(
        assignment,
        OverheadModel.paper_core_i7(4),
        duration=4 * max(t.period for t in taskset),
        record_trace=True,
        sporadic_jitter=sporadic_jitter,
        execution_variation=0.3,
        seed=seed,
        tick_ns=tick_ns,
        faults=faults,
    ).run()
    return result


def tick_vs_event(seed: int = 0) -> List[str]:
    """Tick-driven release processing is a no-op on tick-aligned releases.

    Generated periods are multiples of the 100 µs generator granularity
    and first releases are synchronous at 0, so with ``tick_ns=100 µs``
    every release timer already fires on a tick boundary — the deferral
    rounds to itself and the runs must agree bit-for-bit (in particular
    on the miss set).
    """
    # Sporadic jitter draws arbitrary (non-tick-aligned) inter-arrival
    # delays, which would make the deferral a real perturbation — keep
    # arrivals strictly periodic for this pair.
    event_mode = result_to_canonical(
        _simulate_for_identity(seed, tick_ns=0, sporadic_jitter=0)
    )
    tick_mode = result_to_canonical(
        _simulate_for_identity(seed, tick_ns=100 * US, sporadic_jitter=0)
    )
    return _diff_canonical(event_mode, tick_mode, "event-mode", "tick-mode")


def assignment_to_canonical(assignment) -> dict:
    """An :class:`~repro.model.assignment.Assignment` (or ``None``) as one
    JSON-safe, bit-comparable dict: every entry field that the analysis or
    the simulator reads, plus the split-task registry."""
    if assignment is None:
        return {"accepted": False}
    return {
        "accepted": True,
        "n_cores": assignment.n_cores,
        "cores": [
            [
                {
                    "name": entry.name,
                    "kind": entry.kind.value,
                    "task": entry.task.name,
                    "core": entry.core,
                    "budget": entry.budget,
                    "deadline": entry.deadline,
                    "jitter": entry.jitter,
                    "local_priority": entry.local_priority,
                    "body_rank": entry.body_rank,
                    "subtask": (
                        None
                        if entry.subtask is None
                        else {
                            "index": entry.subtask.index,
                            "core": entry.subtask.core,
                            "budget": entry.subtask.budget,
                            "total_subtasks": entry.subtask.total_subtasks,
                        }
                    ),
                }
                for entry in core.sorted_entries()
            ]
            for core in assignment.cores
        ],
        "splits": {
            name: [(sub.core, sub.budget) for sub in split.subtasks]
            for name, split in sorted(assignment.split_tasks.items())
        },
    }


#: Periods (ns) of the context-vs-oracle entries: 1-20 ms, so a 100 µs
#: tick is a real but not dominant perturbation.
_CVO_PERIODS = tuple(ms * MS for ms in (1, 2, 4, 5, 8, 10, 20))
_CVO_GRAIN = 10 * US


class _CvoEntries:
    """Seeded random core entries (normal, body and tail) for one trial."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.serial = 0
        self.body_rank = 0

    def task(self, wcet_cap: float):
        from repro.model.task import Task

        rng = self.rng
        self.serial += 1
        period = rng.choice(_CVO_PERIODS)
        deadline = rng.choice((period, rng.randint(period // 2, period)))
        grains = max(1, int(wcet_cap * deadline) // _CVO_GRAIN)
        return Task(
            f"t{self.serial}",
            wcet=_CVO_GRAIN * rng.randint(1, grains),
            period=period,
            deadline=deadline,
            priority=period // US,
        )

    @staticmethod
    def piece(task, kind, budget, deadline, jitter=0, body_rank=0):
        from repro.model.assignment import Entry, EntryKind
        from repro.model.split import Subtask

        if kind == EntryKind.NORMAL:
            return Entry(kind, task, 0, task.wcet)
        index = 0 if kind == EntryKind.BODY else 1
        return Entry(
            kind,
            task,
            0,
            budget,
            subtask=Subtask(task, index, 0, budget, 2),
            deadline=deadline,
            jitter=jitter,
            body_rank=body_rank,
        )

    def entry(self, wcet_cap: float = 0.35):
        """One fresh entry of a random kind.  Tails may carry so much
        jitter that their budget exceeds their local deadline."""
        from repro.model.assignment import EntryKind

        rng = self.rng
        task = self.task(wcet_cap)
        kind = rng.choice(
            (EntryKind.NORMAL, EntryKind.NORMAL, EntryKind.BODY, EntryKind.TAIL)
        )
        budget = _CVO_GRAIN * rng.randint(1, task.wcet // _CVO_GRAIN)
        if kind == EntryKind.BODY:
            self.body_rank += 1
            return self.piece(
                task, kind, budget, task.deadline, body_rank=self.body_rank
            )
        jitter = 0
        if kind == EntryKind.TAIL:
            jitter = _CVO_GRAIN * rng.randint(
                0, task.deadline // _CVO_GRAIN - 1
            )
        return self.piece(task, kind, budget, task.deadline - jitter, jitter)

    def budget_family(self):
        """``(lo, hi, build)`` for a budget search shaped like FP-TS's
        body search: the body's local deadline grows with its budget, up
        to what the rest of the job leaves it, and ``build`` vetoes a
        budget larger than that deadline."""
        from repro.model.assignment import EntryKind

        task = self.task(wcet_cap=0.9)
        self.body_rank += 1
        rank = self.body_rank
        slack = self.rng.randint(0, task.deadline // 2)
        cap = task.deadline - self.rng.randint(0, task.deadline // 4)

        def build(budget: int):
            deadline = min(cap, slack + budget)
            if deadline < budget:
                return None
            return self.piece(
                task, EntryKind.BODY, budget, deadline, body_rank=rank
            )

        return self.rng.randint(1, max(1, task.wcet // 4)), task.wcet, build


def _cvo_oracle(flavor: str, tick_ns: int, entries, candidate):
    """The independent verdict ``(schedulable, candidate response)``:
    :func:`~repro.analysis.rta.core_schedulable` or
    :func:`~repro.analysis.edf.edf_schedulable` over the full entry list.
    EDF admission has no response; it answers ``1`` like the context."""
    from repro.analysis.edf import edf_schedulable
    from repro.analysis.rta import core_schedulable

    everything = [*entries, candidate]
    if flavor == "edf":
        ok = edf_schedulable(
            [(e.budget, e.period, e.deadline) for e in everything]
        )
        return ok, (1 if ok else None)
    analysis = core_schedulable(everything, tick_ns)
    if not analysis.schedulable:
        return False, None
    return True, next(
        r.response for r in analysis.results if r.entry is candidate
    )


def _cvo_state(flavor: str, tick_ns: int, ctx, residents) -> List[str]:
    """The context holds exactly ``residents`` and, for RTA, reports the
    oracle's response for each.  Responses are read on a clone, so their
    re-memoization cannot heal the context under test."""
    from repro.analysis.rta import core_schedulable

    if sorted(map(id, ctx.entries)) != sorted(map(id, residents)):
        return [
            f"residents {[e.name for e in ctx.entries]} != expected "
            f"{[e.name for e in residents]}"
        ]
    problems = []
    expected = sum(e.utilization for e in residents)
    if abs(ctx.utilization - expected) > 1e-9:
        problems.append(f"utilization {ctx.utilization} != {expected}")
    if flavor == "rta":
        got = [(e.name, r) for e, r in ctx.clone().responses()]
        want = [
            (result.entry.name, result.response)
            for result in core_schedulable(residents, tick_ns).results
        ]
        if got != want:
            problems.append(f"responses {got} != oracle {want}")
    return problems


def _cvo_trial(flavor: str, tick_ns: int, rng: random.Random, steps: int):
    """One seeded op sequence; the first discrepancy, or ``None``."""
    from repro.analysis.incremental import (
        AnalysisStats,
        CoreAnalysisContext,
        EdfCoreContext,
    )

    stats = AnalysisStats()
    if flavor == "edf":
        ctx = EdfCoreContext(precheck_cd=rng.random() < 0.5, stats=stats)
    else:
        ctx = CoreAnalysisContext(tick_ns=tick_ns, stats=stats)
    entries = _CvoEntries(rng)
    residents: list = []

    def oracle(candidate):
        if candidate is None:  # vetoed by the budget search's builder
            return False, None
        return _cvo_oracle(flavor, tick_ns, residents, candidate)

    ops = ("probe", "commit", "install", "remove", "clone", "probe_budget")
    for step in range(steps):
        op = rng.choices(ops, weights=(3, 3, 1, 1, 1, 2))[0]
        where = f"step {step} ({op})"
        if op in ("probe", "commit"):
            candidate = entries.entry()
            ok, want = oracle(candidate)
            # A commit either reuses the preceding probe or probes anew.
            if op == "probe" or rng.random() < 0.5:
                pre = ctx.prepare(candidate) if rng.random() < 0.5 else None
                got = ctx.probe(candidate, pre=pre)
                if got != want:
                    return f"{where}: probe {candidate} -> {got}, oracle {want}"
            if op == "commit":
                try:
                    got = ctx.commit(candidate)
                except ValueError:
                    got = None
                if got != want:
                    return (
                        f"{where}: commit {candidate} -> {got}, oracle {want}"
                    )
                if ok:
                    residents.append(candidate)
        elif op == "install":
            # Partitioners install only pieces whose feasibility they
            # established, with or without the known response.
            candidate = entries.entry()
            ok, want = oracle(candidate)
            if ok:
                ctx.install(candidate, want if rng.random() < 0.5 else None)
                residents.append(candidate)
        elif op == "remove" and residents:
            ctx.remove(residents.pop(rng.randrange(len(residents))))
        elif op == "clone":
            copy = ctx.clone()
            if residents and rng.random() < 0.5:
                copy.remove(residents[-1])
            else:
                copy.install(entries.entry(wcet_cap=0.05))
            problems = _cvo_state(flavor, tick_ns, ctx, residents)
            if problems:
                return f"{where}: editing the clone changed the original: " + (
                    "; ".join(problems)
                )
            if rng.random() < 0.5:
                ctx = ctx.clone()
        elif op == "probe_budget":
            lo, hi, build = entries.budget_family()
            best, response = ctx.probe_budget(lo, hi, build)
            if best is None:
                if oracle(build(lo))[0]:
                    return f"{where}: no budget found, but {lo} is feasible"
                continue
            winner = build(best)
            ok, want = oracle(winner)
            if not ok or response != want:
                return (
                    f"{where}: budget {best} in [{lo}, {hi}] answered "
                    f"{response}, oracle {want if ok else 'infeasible'}"
                )
            if best < hi and oracle(build(best + 1))[0]:
                return (
                    f"{where}: budget {best} in [{lo}, {hi}] is not "
                    f"maximal: {best + 1} is feasible"
                )
            if rng.random() < 0.5:  # FP-TS installs the winning piece
                ctx.install(winner, response)
                residents.append(winner)
        problems = _cvo_state(flavor, tick_ns, ctx, residents)
        if problems:
            return f"{where}: " + "; ".join(problems)
    return None


def context_vs_oracle(trials: int = 20, seed: int = 0) -> List[str]:
    """Per-core analysis contexts vs. the untouched per-entry oracles.

    Each trial drives one context through a seeded random sequence of
    ``probe`` / ``commit`` / ``install`` / ``remove`` / ``clone`` /
    ``probe_budget`` calls over normal, body and tail entries.  Trials
    cycle through :class:`~repro.analysis.incremental.CoreAnalysisContext`
    at ``tick_ns`` 0 and 100 µs and
    :class:`~repro.analysis.incremental.EdfCoreContext`.  After every step:

    * each probe and commit verdict and response equals
      :func:`~repro.analysis.rta.core_schedulable` (or
      :func:`~repro.analysis.edf.edf_schedulable`) on the context's
      current entries plus the candidate;
    * a ``probe_budget`` answer ``b`` is feasible with the oracle's
      response, and ``b + 1`` is not, unless ``b`` is the upper bound;
    * the context holds exactly the expected entries, and (RTA) their
      exact responses equal the oracle's.

    The partitioners reach the analysis only through this API, so
    probe-level agreement implies they build the assignments the oracle
    would.
    """
    diffs: List[str] = []
    rng = random.Random(seed)
    flavors = (("rta", 0), ("rta", 100 * US), ("edf", 0))
    for trial in range(trials):
        flavor, tick_ns = flavors[trial % len(flavors)]
        trial_rng = random.Random(rng.randrange(2**32))
        problem = _cvo_trial(flavor, tick_ns, trial_rng, steps=40)
        if problem is not None:
            diffs.append(
                f"trial {trial} ({flavor}, tick={tick_ns}): {problem}"
            )
    return diffs


#: Algorithms the batch layer expresses natively (must mirror
#: ``repro.experiments.algorithms.BATCH_ALGORITHMS``), plus FP-TS, which
#: the batch FFD row prefilters.
_BATCH_ALGORITHMS = ("FFD", "WFD", "BFD", "NFD", "P-EDF", "FP-TS")


def batch_vs_scalar(trials: int = 20, seed: int = 0) -> List[str]:
    """Batched struct-of-arrays analysis vs. the scalar partitioners.

    Each trial draws a whole population of seeded task sets (alternating
    zero and paper-calibrated overhead models), packs it into aligned
    arrays, and asserts two bit-level identities:

    * the batch accept/reject vector of every batchable algorithm, and
      of FP-TS (the FFD row plus the split search on the lanes FFD
      rejects), equals the per-set verdicts of the scalar partitioners;
    * on every core of every accepted FFD assignment, the batched RTA
      fixed point returns the identical integer response times as the
      scalar :func:`~repro.analysis.rta.core_schedulable`.
    """
    import numpy as np

    from repro.analysis.batch import (
        TaskSetPopulation,
        batch_rta_responses,
    )
    from repro.analysis.rta import core_schedulable, order_entries
    from repro.experiments.algorithms import (
        accept_population,
        build_assignment,
    )

    diffs: List[str] = []
    rng = random.Random(seed)
    for trial in range(trials):
        n_cores = rng.choice((2, 4))
        n_tasks = rng.randint(6, 12)
        utilization = rng.uniform(0.55, 0.95) * n_cores
        model = (
            OverheadModel.zero()
            if trial % 2 == 0
            else OverheadModel.paper_core_i7(n_cores)
        )
        generator = TaskSetGenerator(
            n_tasks=n_tasks,
            seed=rng.randint(0, 10**6),
            period_min=5 * MS,
            period_max=100 * MS,
        )
        tasksets = generator.generate_many(utilization, 8)
        population = TaskSetPopulation.from_tasksets(tasksets)
        assignments = []
        for algorithm in _BATCH_ALGORITHMS:
            batch_verdicts = accept_population(
                algorithm, population, n_cores, model=model
            )
            scalar = [
                build_assignment(algorithm, ts, n_cores, model)
                for ts in tasksets
            ]
            if algorithm == "FFD":
                assignments = scalar
            scalar_verdicts = [a is not None for a in scalar]
            if batch_verdicts != scalar_verdicts:
                diffs.append(
                    f"trial {trial} ({algorithm}, m={n_cores}, "
                    f"U={utilization:.3f}): batch verdicts "
                    f"{batch_verdicts} != scalar {scalar_verdicts}"
                )
        # Response-time identity on the accepted FFD assignments: batch
        # every core (padded to the widest) and compare integers.
        cores = [
            order_entries(core.entries)
            for assignment in assignments
            if assignment is not None
            for core in assignment.cores
            if core.entries
        ]
        if not cores:
            continue
        width = max(len(entries) for entries in cores)
        shape = (len(cores), width)
        wcet = np.zeros(shape, dtype=np.int64)
        period = np.ones(shape, dtype=np.int64)
        deadline = np.zeros(shape, dtype=np.int64)
        for row, entries in enumerate(cores):
            for col, entry in enumerate(entries):
                wcet[row, col] = entry.budget
                period[row, col] = entry.period
                deadline[row, col] = entry.deadline
        batched = batch_rta_responses(wcet, period, deadline)
        for row, entries in enumerate(cores):
            scalar_responses = [
                result.response if result.response is not None else -1
                for result in core_schedulable(entries).results
            ]
            batch_responses = [
                int(batched[row, col]) for col in range(len(entries))
            ]
            if batch_responses != scalar_responses:
                diffs.append(
                    f"trial {trial} core row {row}: batched responses "
                    f"{batch_responses} != scalar {scalar_responses}"
                )
    return diffs


def _fault_plan(kind: str, seed: int):
    """The fault-plan matrix of the identity scenarios."""
    from repro.faults.plan import FaultPlan, TaskFaults

    if kind == "none":
        return None
    if kind == "moderate":
        return FaultPlan(
            default=TaskFaults(
                overrun_factor=1.5,
                overrun_probability=0.3,
                release_jitter_ns=200 * US,
            ),
            seed=seed,
        )
    return FaultPlan(
        default=TaskFaults(
            overrun_factor=2.0,
            overrun_probability=0.4,
            release_jitter_ns=500 * US,
        ),
        overhead_spike_factor=3.0,
        overhead_spike_probability=0.2,
        migration_drop_probability=0.1,
        migration_delay_probability=0.2,
        migration_delay_ns=50 * US,
        seed=seed,
    )


def _accepted_assignment(algorithm: str, seed: int, utilization: float = 1.2):
    """First accepted (taskset, assignment) the generator yields."""
    from repro.experiments.algorithms import build_assignment

    generator = TaskSetGenerator(
        n_tasks=8, seed=seed, period_min=5 * MS, period_max=50 * MS
    )
    for _attempt in range(20):
        candidate = generator.generate(utilization)
        assignment = build_assignment(
            algorithm, candidate, 2, OverheadModel.zero()
        )
        if assignment is not None:
            return candidate, assignment
    return None, None


def _merged_intervals(intervals):
    """Sorted, coalesced [start, end) intervals."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _idle_windows(busy, duration):
    """Complement of the coalesced busy intervals within [0, duration)."""
    idle = []
    cursor = 0
    for start, end in _merged_intervals(busy):
        if start > cursor:
            idle.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < duration:
        idle.append((cursor, duration))
    return idle


def cross_class_sanity(trials: int = 10, seed: int = 0) -> List[str]:
    """Trace-level laws relating the scheduling classes.

    * **Global EDF work conservation** — in a zero-overhead
      ``sched_class="global-edf"`` run, no core may be idle for a
      positive-measure window while any job sits in the shared ready
      queue (ready windows are reconstructed from ``ready``/``dispatch``
      events, idle windows from the complement of the segment trace).
    * **Restricted ⊆ unrestricted migrations** — with deterministic
      execution (full WCET, no jitter), a restricted-migration run of a
      split assignment performs at most as many migrations as the
      unrestricted FP split schedule, for every task and in total: the
      unrestricted schedule migrates every job through every stage while
      restricted migration pays at most one migration per job boundary.
    """
    from repro.kernel.global_sim import build_global_assignment
    from repro.kernel.sim import KernelSim

    diffs: List[str] = []
    rng = random.Random(seed)

    for trial in range(trials):
        n_tasks = rng.randint(4, 8)
        utilization = rng.uniform(0.8, 1.6)
        generator = TaskSetGenerator(
            n_tasks=n_tasks,
            seed=rng.randint(0, 10**6),
            period_min=5 * MS,
            period_max=50 * MS,
        )
        taskset = generator.generate(utilization)
        result = KernelSim(
            build_global_assignment(taskset, 2),
            OverheadModel.zero(),
            duration=2 * max(t.period for t in taskset),
            record_trace=True,
            sched_class="global-edf",
        ).run()
        # Ready (waiting) windows: job-level ready -> task-level dispatch,
        # FIFO per task, all cores folded together (one shared queue).
        waiting = []
        open_by_task: Dict[str, list] = {}
        for time, kind, label, _core in result.events:
            if kind == "ready":
                task = label.split("/", 1)[0]
                interval = [time, result.duration, label]
                open_by_task.setdefault(task, []).append(interval)
                waiting.append(interval)
            elif kind == "dispatch":
                pending = open_by_task.get(label)
                if pending:
                    pending.pop(0)[1] = time
        idle_by_core = {
            core: _idle_windows(
                [
                    (start, end)
                    for c, start, end, _label, _kind in result.trace
                    if c == core
                ],
                result.duration,
            )
            for core in range(2)
        }
        for start, end, job in waiting:
            if end <= start:
                continue
            for core, idle in idle_by_core.items():
                overlap = [
                    (max(start, s), min(end, e))
                    for s, e in idle
                    if min(end, e) > max(start, s)
                ]
                if overlap:
                    diffs.append(
                        f"trial {trial}: global-edf left core {core} idle "
                        f"{overlap[0]} while {job} waited in the ready "
                        f"queue [{start},{end})"
                    )
                    break

    found_split = 0
    for trial in range(10 * trials):
        if found_split >= max(1, trials // 2):
            break
        taskset, assignment = _accepted_assignment(
            "FP-TS", seed + 1000 + trial, utilization=1.9
        )
        if assignment is None or not assignment.split_tasks:
            continue
        found_split += 1
        duration = 4 * max(t.period for t in taskset)
        runs = {}
        for sched_class in ("fp", "restricted"):
            runs[sched_class] = KernelSim(
                assignment,
                OverheadModel.zero(),
                duration,
                sched_class=sched_class,
            ).run()
        unrestricted = runs["fp"].task_stats
        restricted = runs["restricted"].task_stats
        for task in assignment.split_tasks:
            if restricted[task].migrations > unrestricted[task].migrations:
                diffs.append(
                    f"split trial {trial}: task {task} migrated "
                    f"{restricted[task].migrations} times under restricted "
                    f"migration but only {unrestricted[task].migrations} "
                    f"unrestricted"
                )
        if runs["restricted"].migrations > runs["fp"].migrations:
            diffs.append(
                f"split trial {trial}: total restricted migrations "
                f"{runs['restricted'].migrations} exceed unrestricted "
                f"{runs['fp'].migrations}"
            )
    if found_split == 0:
        diffs.append("no split FP-TS assignment found for migration subset")
    return diffs


def replay_vs_synthetic(trials: int = 20, seed: int = 0) -> List[str]:
    """Trace replay and profile synthesis must agree on admission.

    For each trial, build a **zero-variance** trace (constant
    inter-arrival gap, constant work — randomized per trial), fit a
    profile, and synthesize from it at scale 1.0 with no storm.  The
    quantile sketch stores a constant exactly and inverse-transform
    sampling returns it exactly, so the synthesized stream must equal
    the replayed trace job-for-job — and therefore produce the
    *identical admission verdict* (hard misses, completions, response
    totals) when routed through the same deferrable server alongside
    the same generated hard task set.
    """
    from repro.model.generator import TaskSetGenerator as _Gen
    from repro.servers.server import DeferrableServer
    from repro.servers.sim import simulate_with_server
    from repro.workload.profile import fit_profile
    from repro.workload.synth import ScenarioSynthesizer
    from repro.workload.trace import ArrivalTrace, TraceRecord

    diffs: List[str] = []
    for trial in range(trials):
        rng = random.Random(f"replay-synth:{seed}:{trial}")
        gap = rng.randint(50, 1000) * US
        work = rng.randint(10, 200) * US
        n_jobs = rng.randint(20, 200)
        stream = f"t{trial}"
        trace = ArrivalTrace(
            records=tuple(
                TraceRecord(stream, gap * (i + 1), work)
                for i in range(n_jobs)
            )
        )
        replayed = trace.jobs(stream)
        horizon = trace.span_ns(stream) + 1
        profile = fit_profile(trace, window_ns=max(gap, 1 * MS))
        synthesized = ScenarioSynthesizer(
            profile, seed=seed + trial
        ).synthesize_stream(stream, horizon)
        if synthesized != replayed:
            diffs.append(
                f"trial {trial}: synthesized stream differs from replay "
                f"({len(synthesized)} vs {len(replayed)} jobs; gap={gap} "
                f"work={work})"
            )
            continue
        tasks = sorted(
            _Gen(n_tasks=3, seed=seed + trial).generate(0.5),
            key=lambda task: (task.period, task.name),
        )
        server = DeferrableServer(capacity=2 * MS, period=10 * MS)
        verdicts = {}
        for label, jobs_ in (("replay", replayed), ("synthetic", synthesized)):
            misses, stats = simulate_with_server(
                tasks, jobs_, horizon, server, server_priority=0
            )
            verdicts[label] = (
                misses == 0,
                misses,
                stats.completed,
                stats.unfinished,
                stats.total_response,
                stats.max_response,
            )
        if verdicts["replay"] != verdicts["synthetic"]:
            diffs.append(
                f"trial {trial}: admission verdict differs — replay "
                f"{verdicts['replay']} vs synthetic {verdicts['synthetic']}"
            )
    return diffs


def freq1_vs_unscaled(trials: int = 6, seed: int = 0) -> List[str]:
    """Frequency 1.0 must be the exact pre-DVFS simulator.

    Runs the identity scenario (FP-TS / C=D assignments, sporadic jitter,
    execution variation, the fault matrix) twice per trial — once with
    ``frequencies=None`` (the pre-DVFS constructor path) and once with an
    explicit all-ones frequency vector plus an explicit default
    :class:`~repro.energy.model.PowerModel` — and requires bit-identical
    canonical results *and* identical energy ledgers.  Every ledger is
    additionally replayed from zero through
    :func:`repro.energy.model.check_energy_ledger`.
    """
    from repro.energy.model import PowerModel, check_energy_ledger
    from repro.kernel.sim import KernelSim

    freq_specs = (1, [1, 1], "1.0")  # scalar, vector, decimal-string
    diffs: List[str] = []
    for trial in range(trials):
        run_seed = seed + trial
        plan_kind = ("none", "moderate", "full")[trial % 3]
        policy = "fp" if trial % 2 == 0 else "edf"
        algorithm = "FP-TS" if policy == "fp" else "C=D"
        taskset, assignment = _accepted_assignment(algorithm, run_seed)
        if assignment is None:
            diffs.append(
                f"trial {trial}: no accepted {algorithm} task set "
                f"from seed {run_seed}"
            )
            continue
        duration = 4 * max(task.period for task in taskset)

        def simulate(frequencies, power):
            return KernelSim(
                assignment,
                OverheadModel.paper_core_i7(4),
                duration,
                record_trace=True,
                policy=policy,
                sporadic_jitter=MS,
                execution_variation=0.3,
                seed=run_seed,
                faults=_fault_plan(plan_kind, run_seed),
                frequencies=frequencies,
                power=power,
            ).run()

        unscaled = simulate(None, None)
        freq1 = simulate(freq_specs[trial % len(freq_specs)], PowerModel())
        detail = _diff_canonical(
            result_to_canonical(unscaled),
            result_to_canonical(freq1),
            "unscaled",
            "freq-1",
        )
        if detail:
            diffs.append(
                f"trial {trial} ({policy}, faults={plan_kind}): "
                + "; ".join(detail[:3])
            )
        if unscaled.energy != freq1.energy:
            diffs.append(
                f"trial {trial}: energy ledgers differ at frequency 1"
            )
        for label, result in (("unscaled", unscaled), ("freq-1", freq1)):
            for problem in check_energy_ledger(
                result.energy,
                result.busy_ns,
                result.overhead_ns,
                result.duration,
            ):
                diffs.append(f"trial {trial} ({label}): {problem}")
    return diffs


#: Name -> zero-argument runner for each differential pair.
DIFFERENTIAL_PAIRS = (
    "sim-vs-oracle",
    "serial-vs-parallel",
    "tick-vs-event",
    "context-vs-oracle",
    "batch-vs-scalar",
    "cross-class-sanity",
    "replay-vs-synthetic",
    "freq1-vs-unscaled",
)


def run_differential_suite(
    seed: int = 0, trials: int = 20, jobs: int = 2
) -> Dict[str, List[str]]:
    """Run all eight pairs; maps pair name to its discrepancy list."""
    return {
        "sim-vs-oracle": sim_vs_oracle(trials=trials, seed=seed),
        "serial-vs-parallel": serial_vs_parallel(seed=seed, jobs=jobs),
        "tick-vs-event": tick_vs_event(seed=seed),
        "context-vs-oracle": context_vs_oracle(trials=trials, seed=seed),
        "batch-vs-scalar": batch_vs_scalar(trials=trials, seed=seed),
        "cross-class-sanity": cross_class_sanity(
            trials=max(1, trials // 2), seed=seed
        ),
        "replay-vs-synthetic": replay_vs_synthetic(
            trials=trials, seed=seed
        ),
        "freq1-vs-unscaled": freq1_vs_unscaled(
            trials=max(1, trials // 3), seed=seed
        ),
    }
