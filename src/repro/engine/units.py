"""Work units: self-describing, independently executable experiment slices.

A unit is one *utilization point* of one experiment configuration — the
granularity at which the existing harnesses already derive their per-point
seeds (``seed + 7919 * point_index`` for acceptance sweeps, ``seed +
104729 * point_index`` for splitting statistics).  Because each unit
carries everything needed to execute it (platform, workload, overhead
model, algorithms, seed), units can run in any order, in any process, and
the merged result is identical to the serial loops they replaced.

In-process, :func:`unit_blocks` and :func:`execute_units` run the batch
acceptance and criteria points of a sweep as merged blocks, one packing
pass per block; every batch verdict and placement is lane-local, so
each unit's payload is the one its own pass gives.

``execute_unit`` is a module-level function so it pickles cleanly for
:class:`concurrent.futures.ProcessPoolExecutor`; payloads are plain
JSON-serializable dicts of *exact* values (acceptance counts, not ratios)
so a cache round-trip cannot perturb downstream floating-point results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.model.generator import TaskSetGenerator
from repro.model.time import MS, SEC
from repro.overhead.model import OverheadModel
from repro.workload.profile import WorkloadProfile

#: Bump whenever unit semantics or payload layout change: the version is
#: hashed into every cache key, so stale cache entries are invalidated
#: wholesale instead of being misread.
#: v2: AcceptanceUnit grew the ``batch`` field (vectorized analysis).
#: v3: new WorkloadUnit kind (trace-driven scenario synthesis).
#: v4: new CriteriaUnit kind (multi-criteria campaign axes).
CACHE_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class AcceptanceUnit:
    """One utilization point of an acceptance-ratio sweep.

    Executing it generates ``sets_per_point`` task sets with total
    utilization ``utilization * n_cores`` from ``seed`` and counts, per
    algorithm, how many pass the overhead-aware acceptance test.

    With ``batch=True`` the point's population is generated as one
    struct-of-arrays batch and analyzed by the vectorized kernels of
    :mod:`repro.analysis.batch` (scalar fallback for algorithms or
    populations the batch layer cannot express), alone or merged with
    other points by :func:`execute_units`.  The payload is bit-identical
    either way; the flag only selects the engine.
    """

    n_cores: int
    n_tasks: int
    sets_per_point: int
    utilization: float  # normalized (U/m)
    seed: int
    algorithms: Tuple[str, ...]
    overheads: OverheadModel
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    batch: bool = False
    kind: str = "acceptance"


@dataclass(frozen=True)
class SplittingUnit:
    """One utilization point of the splitting-statistics experiment (E7)."""

    algorithm: str
    n_cores: int
    n_tasks: int
    sets_per_point: int
    utilization: float  # normalized (U/m)
    seed: int
    overheads: OverheadModel
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "splitting"


@dataclass(frozen=True)
class CriteriaUnit:
    """One utilization point of a multi-criteria campaign sweep.

    Executing it generates the point's task-set population (the same
    one an :class:`AcceptanceUnit` with these fields generates) and
    measures, per algorithm, the sets the overhead-aware test accepts
    (``accepted``/``total``, the acceptance unit's payload) and the
    evaluation axes *beyond* acceptance:

    * static packing axes over **every** accepted assignment —
      spare-capacity balance (``min`` over cores of spare capacity
      divided by the mean spare, 1.0 = perfectly even) and bin-packing
      slack (``1 - total_utilization / m``);
    * dynamic axes from short :class:`~repro.kernel.sim.KernelSim` runs
      (two maximum periods of simulated time) over the first
      ``sim_sets`` accepted sets — preemptions and migrations per job
      release, mean platform power (mW) and energy per hyperperiod (uJ)
      from the simulation's energy ledger.

    It runs like a batch acceptance unit (:func:`execute_units`, merged
    with the points that share its key): the packing heuristics'
    verdicts and static axes come from the batch packing pass's
    placements (per-core loads equal to ``CoreAssignment.utilization``
    bit for bit), FP-TS takes FFD's row and runs its split search on
    FFD's rejects only, and a scalar partitioner builds an assignment
    only for the sets the unit simulates.  Non-batch algorithms, and
    populations the batch layer cannot express, stay scalar.

    Payload values are per-algorithm means; an algorithm that accepted
    no set maps to ``None`` (NaN downstream), and dynamic axes are
    ``None`` when no accepted set was simulated.  A run repeated within
    the unit (same set, scheduling class and assignment) is simulated
    once and its row reused.  Global algorithms
    place tasks at runtime, so their static axes use the evenly-spread
    raw utilization and their simulations route through
    :func:`repro.kernel.global_sim.build_global_assignment`.
    """

    n_cores: int
    n_tasks: int
    sets_per_point: int
    utilization: float  # normalized (U/m)
    seed: int
    algorithms: Tuple[str, ...]
    overheads: OverheadModel
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    #: Cap on per-algorithm simulated sets (simulation dominates cost).
    sim_sets: int = 5
    kind: str = "criteria"


@dataclass(frozen=True)
class ChaosUnit:
    """A unit that misbehaves on demand — the engine-robustness harness.

    Used by the tests and the CI fault smoke to exercise the engine's
    timeout, retry, crash, and fallback paths with *controlled* failures:

    * ``mode="ok"`` — sleep ``sleep_s`` (if any) and return
      ``{"value": payload_value}``;
    * ``mode="error"`` — raise ``RuntimeError`` every time;
    * ``mode="crash"`` — kill the hosting process with ``os._exit`` (a
      worker crash; **never execute serially**);
    * ``mode="hang"`` — sleep ``sleep_s`` before returning (set it above
      the engine's ``unit_timeout`` to simulate a hung worker);
    * ``mode="crash-once"`` / ``mode="error-once"`` — fail only while
      the ``marker`` file does not exist (it is created just before the
      failure), so the first attempt dies and every retry succeeds.
    """

    mode: str = "ok"
    payload_value: int = 0
    sleep_s: float = 0.0
    marker: Optional[str] = None
    kind: str = "chaos"


@dataclass(frozen=True)
class AdmissionUnit:
    """One online admission-control query: *can this exact task set be
    scheduled on this platform?*

    The unit carries the task set verbatim — ``tasks`` is a tuple of
    ``(name, wcet_ns, period_ns, deadline_ns, wss_bytes)`` tuples — so
    its fingerprint is a content hash of the *query*, which is what the
    service's cache-only degradation tier answers from.
    """

    tasks: Tuple[Tuple[str, int, int, int, int], ...]
    n_cores: int
    algorithms: Tuple[str, ...]
    overheads: OverheadModel
    kind: str = "admission"


@dataclass(frozen=True)
class ProfileUnit:
    """One metrics-instrumented simulation of a generated scenario.

    Executing it generates a task set (``seed``), partitions it with
    ``algorithm``, runs a :class:`~repro.kernel.sim.KernelSim` with a
    fresh :class:`~repro.metrics.registry.MetricsRegistry` attached, and
    returns the registry snapshot plus a headline summary.  Snapshots
    are plain dicts, so shards from worker processes merge losslessly in
    the parent (``MetricsRegistry.from_dict(...)`` + ``merge``) — the
    merged registry's ``sim_*`` metrics equal a serial run's exactly.
    Rejected (unschedulable) scenarios return ``{"rejected": True}``.
    """

    n_cores: int
    n_tasks: int
    utilization: float  # normalized (U/m)
    seed: int
    algorithm: str
    overheads: OverheadModel
    duration_ms: int
    overrun_policy: str = "run-on"
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "profile"


@dataclass(frozen=True)
class VerifyUnit:
    """A contiguous slice of verification-harness trials.

    Executing it runs trials ``start .. start + count - 1`` of the
    :mod:`repro.verify.harness` (each trial derives its own RNG from
    ``seed`` and its index, so slicing is order-independent) and returns
    the failing trials as JSON payloads — scenario plus violation
    strings.  Shrinking happens in the parent process, not here: a unit
    payload must be cheap, cacheable raw data.
    """

    start: int
    count: int
    seed: int
    kind: str = "verify"


@dataclass(frozen=True)
class WorkloadUnit:
    """One synthesized trace-driven scenario: a point on a storm sweep.

    Executing it re-synthesizes the aperiodic job streams from the
    embedded fitted profile (:mod:`repro.workload`) at ``scale`` with
    the configured ON/OFF storm overlay, generates a hard periodic set
    when ``n_hard_tasks > 0``, routes the jobs through the chosen
    aperiodic server, and runs the exact event-driven server simulation.
    The unit carries the *whole* :class:`~repro.workload.profile.
    WorkloadProfile` (nested frozen dataclasses, so ``asdict`` gives a
    stable fingerprint and the unit pickles to process-pool workers);
    ``storm_intensity <= 1`` disables the storm overlay, and an empty
    ``stream`` synthesizes every stream in the profile.  Payloads are
    exact integer totals, never means.
    """

    profile: "WorkloadProfile"
    horizon_ms: int
    seed: int
    scale: float = 1.0
    stream: str = ""
    storm_intensity: float = 1.0
    storm_on_ms: int = 0
    storm_off_ms: int = 0
    server_kind: str = "deferrable"
    server_capacity_us: int = 2000
    server_period_us: int = 10000
    server_priority: int = 0
    n_hard_tasks: int = 0
    hard_utilization: float = 0.0
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "workload"


WorkUnit = Union[
    AcceptanceUnit,
    AdmissionUnit,
    SplittingUnit,
    ChaosUnit,
    CriteriaUnit,
    VerifyUnit,
    ProfileUnit,
    WorkloadUnit,
]


def unit_spec(unit: WorkUnit) -> dict:
    """The unit's full configuration as a JSON-safe nested dict."""
    return asdict(unit)


def unit_fingerprint(
    unit: WorkUnit, schema_version: Optional[int] = None
) -> str:
    """Stable content hash of a unit's configuration.

    Canonical JSON (sorted keys, no whitespace) of the unit's spec plus
    the cache schema version, SHA-256 hashed — the key under which
    :class:`repro.engine.cache.ResultCache` stores the unit's payload.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    blob = json.dumps(
        {"schema": schema_version, "unit": unit_spec(unit)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execute_unit(unit: WorkUnit) -> dict:
    """Execute one work unit and return its JSON-serializable payload.

    Module-level (pickled by reference) so it can be dispatched to a
    :class:`~concurrent.futures.ProcessPoolExecutor` worker.
    """
    try:
        executor = _EXECUTORS[unit.kind]
    except KeyError:
        raise ValueError(f"unknown work-unit kind {unit.kind!r}") from None
    return executor(unit)


def _generator(unit) -> TaskSetGenerator:
    """The unit's task-set generator (its seed and period range)."""
    return TaskSetGenerator(
        n_tasks=unit.n_tasks,
        seed=unit.seed,
        period_min=unit.period_min,
        period_max=unit.period_max,
    )


def admission_taskset(unit: AdmissionUnit):
    """Rebuild the unit's task set (rate-monotonic priorities assigned).

    Raises :class:`ValueError` for malformed tasks — the service maps
    that to a 400, never a traceback.
    """
    from repro.model.task import Task
    from repro.model.taskset import TaskSet

    tasks = [
        Task(name=name, wcet=wcet, period=period, deadline=deadline,
             wss=wss)
        for name, wcet, period, deadline, wss in unit.tasks
    ]
    return TaskSet(tasks).assign_rate_monotonic()


def execute_admission(unit: AdmissionUnit) -> dict:
    """Answer one admission query with the scalar incremental analysis."""
    from repro.experiments.algorithms import accept

    taskset = admission_taskset(unit)
    return {
        "verdicts": {
            name: bool(accept(name, taskset, unit.n_cores, unit.overheads))
            for name in unit.algorithms
        }
    }


def _execute_profile(unit: ProfileUnit) -> dict:
    from repro.experiments.algorithms import build_assignment
    from repro.kernel.sim import KernelSim
    from repro.metrics.registry import MetricsRegistry

    generator = _generator(unit)
    taskset = generator.generate(unit.utilization * unit.n_cores)
    assignment = build_assignment(
        unit.algorithm, taskset, unit.n_cores, unit.overheads
    )
    if assignment is None:
        return {"rejected": True, "metrics": None, "summary": None}
    registry = MetricsRegistry()
    result = KernelSim(
        assignment,
        unit.overheads,
        duration=unit.duration_ms * MS,
        execution_times={task.name: task.wcet for task in taskset},
        seed=unit.seed,
        overrun_policy=unit.overrun_policy,
        metrics=registry,
    ).run()
    return {
        "rejected": False,
        "metrics": registry.as_dict(),
        "summary": {
            "releases": result.releases,
            "misses": result.miss_count,
            "preemptions": result.preemptions,
            "migrations": result.migrations,
            "context_switches": result.context_switches,
            "overhead_ratio": result.total_overhead_ratio,
        },
    }


def _execute_verify(unit: VerifyUnit) -> dict:
    from repro.verify.harness import run_trial

    failures = []
    for index in range(unit.start, unit.start + unit.count):
        failure = run_trial(index, unit.seed)
        if failure is not None:
            failures.append(failure.as_dict())
    return {"trials": unit.count, "failures": failures}


def _execute_chaos(unit: ChaosUnit) -> dict:
    import os
    import time as _t
    from pathlib import Path as _Path

    mode = unit.mode
    if mode in ("crash-once", "error-once"):
        marker = _Path(unit.marker) if unit.marker else None
        if marker is None or marker.exists():
            mode = "ok"
        else:
            marker.touch()
            mode = mode[: -len("-once")]
    if mode == "ok":
        if unit.sleep_s > 0:
            _t.sleep(unit.sleep_s)
        return {"value": unit.payload_value}
    if mode == "error":
        raise RuntimeError("chaos unit: injected error")
    if mode == "crash":
        os._exit(13)  # simulate a worker process dying uncleanly
    if mode == "hang":
        _t.sleep(unit.sleep_s)
        return {"value": unit.payload_value}
    raise ValueError(f"unknown chaos mode {unit.mode!r}")


#: Most task-set lanes one merged packing block may hold.  The batch
#: kernel's fixed cost is per call, so merging a sweep's points pays it
#: once per block, while its peak memory grows with the lanes.  On the
#: paper's E3 sweep (17 points x 100 sets) throughput stops rising past
#: about 900 lanes while peak RSS keeps growing (the measured curve is
#: in docs/performance.md).
BLOCK_LANES = 900


def _block_key(unit: WorkUnit) -> Optional[tuple]:
    """What units must share to be analyzed as one population (None:
    the unit runs alone)."""
    if unit.kind == "criteria" or (unit.kind == "acceptance" and unit.batch):
        return (unit.n_cores, unit.n_tasks, unit.algorithms, unit.overheads)
    return None


def unit_blocks(units: Sequence[WorkUnit]) -> List[List[int]]:
    """Partition ``units`` (by index) into blocks for :func:`execute_units`.

    Batch acceptance and criteria units sharing ``(n_cores, n_tasks,
    algorithms, overheads)`` fill blocks of at most :data:`BLOCK_LANES`
    lanes, in unit order (a unit larger than the cap is a block of its
    own); every other unit is a block of one.
    """
    blocks: List[List[int]] = []
    open_blocks: Dict[tuple, Tuple[List[int], int]] = {}
    for index, unit in enumerate(units):
        key = _block_key(unit)
        if key is None:
            blocks.append([index])
            continue
        lanes = unit.sets_per_point
        block, held = open_blocks.get(key, (None, 0))
        if block is None or held + lanes > BLOCK_LANES:
            block, held = [], 0
            blocks.append(block)
        block.append(index)
        open_blocks[key] = (block, held + lanes)
    return blocks


def execute_units(units: Sequence[WorkUnit]) -> List[dict]:
    """Execute one block of :func:`unit_blocks`; payloads in unit order.

    A block of batch acceptance and criteria units generates each
    unit's population from its own seed, packs them into one population
    and answers it with one
    :func:`~repro.experiments.algorithms.decide_populations` call (one
    packing pass, plus the scalar analyses it cannot answer).  Every
    verdict and placement is lane-local, so each unit's payload, built
    from its own slice, is exactly what its own pass gives: acceptance
    counts, or a criteria unit's axes (:func:`_criteria_payload`).  A
    merged block the batch layer cannot express as one population
    reruns each unit on its own, so scalar fallbacks stay per unit.
    Any other block runs :func:`execute_unit` unit by unit.
    """
    if not units or _block_key(units[0]) is None:
        return [execute_unit(unit) for unit in units]
    from repro.analysis.batch import PopulationError, TaskSetPopulation
    from repro.experiments.algorithms import decide_populations

    head = units[0]
    populations = []
    for unit in units:
        generated = _generator(unit).generate_batch(
            unit.utilization * unit.n_cores, unit.sets_per_point
        )
        populations.append(
            TaskSetPopulation.from_arrays(
                generated.wcet,
                generated.period,
                generated.deadline,
                generated.wss,
                generated.names,
            )
        )
    sizes = [population.n_sets for population in populations]
    block = TaskSetPopulation.concat(populations)
    del populations  # the block holds the only copy of the lanes
    try:
        # One packing pass answers every batchable algorithm at once.
        decided = decide_populations(
            list(head.algorithms),
            block,
            head.n_cores,
            head.overheads,
            fallback=len(units) == 1,
            keep_assignments=any(u.kind == "criteria" for u in units),
        )
    except PopulationError:
        return [execute_units([unit])[0] for unit in units]
    payloads = []
    start = 0
    for unit, size in zip(units, sizes):
        stop = start + size
        if unit.kind == "criteria":
            payloads.append(_criteria_payload(unit, block, decided, start))
        else:
            payloads.append(
                {
                    "accepted": {
                        name: sum(decided.accepted[name][start:stop])
                        for name in head.algorithms
                    },
                    "total": size,
                }
            )
        start = stop
    return payloads


def _execute_acceptance(unit: AcceptanceUnit) -> dict:
    if unit.batch:
        return execute_units([unit])[0]
    # Imported lazily: repro.experiments imports repro.engine back.
    from repro.experiments.algorithms import accept

    tasksets = _generator(unit).generate_many(
        unit.utilization * unit.n_cores, unit.sets_per_point
    )
    accepted: Dict[str, int] = {}
    for name in unit.algorithms:
        accepted[name] = sum(
            1
            for ts in tasksets
            if accept(name, ts, unit.n_cores, unit.overheads)
        )
    return {"accepted": accepted, "total": len(tasksets)}


def _execute_criteria(unit: CriteriaUnit) -> dict:
    return execute_units([unit])[0]


def _criteria_payload(
    unit: CriteriaUnit, population, decided, start: int
) -> dict:
    """The payload of ``unit`` from its lanes ``start ..`` of a decided
    block (``decided``: :class:`~repro.experiments.algorithms.
    PopulationDecisions` over ``population``)."""
    import math

    from repro.analysis.batch import core_utilizations
    from repro.experiments.algorithms import ALGORITHMS, build_assignment
    from repro.kernel.global_sim import build_global_assignment
    from repro.kernel.sim import KernelSim
    from repro.model.io import assignment_to_dict

    n_cores = unit.n_cores
    stop = start + unit.sets_per_point
    tasksets: Dict[int, object] = {}

    def _taskset(lane: int):
        if lane not in tasksets:
            tasksets[lane] = population.taskset(lane)
        return tasksets[lane]

    def _mean(values):
        return sum(values) / len(values)

    # Static axes of a packed lane come from its placement; a simulated
    # one needs the Assignment, which the scalar partitioner builds (the
    # same one: the packing pass is bit-identical to it).  FP-TS's
    # assignment is FFD's whenever FFD accepts
    # (tests/test_fpts_prefilter.py pins this), so each simulated set's
    # FFD assignment is built once.
    ffd: Dict[int, object] = {}

    def _assignment(name: str, lane: int):
        kept = decided.assignments[name].get(lane)
        if kept is not None or name not in decided.core_of:
            return kept
        if name in ("FFD", "FP-TS"):
            if lane not in ffd:
                ffd[lane] = build_assignment(
                    "FFD", _taskset(lane), n_cores, unit.overheads
                )
            return ffd[lane]
        return build_assignment(name, _taskset(lane), n_cores, unit.overheads)

    loads: Dict[str, list] = {}  # per packed algorithm, the unit's loads

    def _loads(name: str) -> list:
        source = "FFD" if name == "FP-TS" else name  # FFD's placements
        if source not in loads:
            loads[source] = core_utilizations(
                decided.core_of[source][start:stop],
                decided.utilization[start:stop],
                n_cores,
            ).tolist()
        return loads[source]

    criteria: Dict[str, Optional[dict]] = {}
    accepted: Dict[str, int] = {}
    runs: Dict[tuple, tuple] = {}  # dynamic row of each distinct run
    for name in unit.algorithms:
        spec = ALGORITHMS[name]
        verdicts = decided.accepted[name]
        kept = decided.assignments[name]
        static_rows = []  # (spare_balance, packing_slack)
        dynamic_rows = []  # (preempt/rel, migr/rel, power_mw, per_hp_uj)
        for lane in range(start, stop):
            if not verdicts[lane]:
                continue
            index = lane - start
            if spec.kind == "global":
                # Placement is a runtime decision; statically the load
                # is spread evenly (placeholder assignments are empty).
                total = sum(t.wcet / t.period for t in _taskset(lane))
                core_utils = [total / n_cores] * n_cores
            elif lane in kept:
                core_utils = [core.utilization for core in kept[lane].cores]
            else:
                core_utils = _loads(name)[index]
            spare = [max(0.0, 1.0 - u) for u in core_utils]
            mean_spare = _mean(spare)
            static_rows.append(
                (
                    min(spare) / mean_spare if mean_spare > 0 else 1.0,
                    1.0 - sum(core_utils) / n_cores,
                )
            )
            if len(dynamic_rows) >= unit.sim_sets:
                continue
            taskset = _taskset(lane)
            simulated = (
                build_global_assignment(taskset, n_cores)
                if spec.kind == "global"
                else _assignment(name, lane)
            )
            # The overheads, seed, duration and execution times are fixed
            # by the unit and the set, so the same assignment under the
            # same class is the same run (FP-TS shares FFD's assignment
            # whenever FFD accepts): simulate it once.
            run_key = (
                index,
                spec.sched_class,
                json.dumps(assignment_to_dict(simulated), sort_keys=True),
            )
            if run_key not in runs:
                result = KernelSim(
                    simulated,
                    unit.overheads,
                    duration=2 * max(task.period for task in taskset),
                    execution_times={
                        task.name: task.wcet for task in taskset
                    },
                    seed=unit.seed,
                    sched_class=spec.sched_class,
                ).run()
                releases = max(1, result.releases)
                hyperperiod = math.lcm(*(t.period for t in taskset))
                energy = result.energy
                try:
                    per_hp_uj = float(energy.energy_per_ns(hyperperiod)) / 1e6
                except OverflowError:
                    per_hp_uj = math.inf
                runs[run_key] = (
                    result.preemptions / releases,
                    result.migrations / releases,
                    float(energy.average_power_mw),
                    per_hp_uj,
                )
            dynamic_rows.append(runs[run_key])
        accepted[name] = len(static_rows)
        if not static_rows:
            criteria[name] = None
            continue
        entry = {
            "spare_balance": _mean([r[0] for r in static_rows]),
            "packing_slack": _mean([r[1] for r in static_rows]),
            "preemptions": None,
            "migrations": None,
            "avg_power_mw": None,
            "energy_per_hp_uj": None,
        }
        if dynamic_rows:
            entry["preemptions"] = _mean([r[0] for r in dynamic_rows])
            entry["migrations"] = _mean([r[1] for r in dynamic_rows])
            entry["avg_power_mw"] = _mean([r[2] for r in dynamic_rows])
            entry["energy_per_hp_uj"] = _mean(
                [r[3] for r in dynamic_rows]
            )
        criteria[name] = entry
    return {
        "accepted": accepted,
        "total": unit.sets_per_point,
        "criteria": criteria,
    }


def _execute_splitting(unit: SplittingUnit) -> dict:
    from repro.experiments.algorithms import build_assignment

    generator = _generator(unit)
    sets_accepted = 0
    split_tasks_total = 0
    subtasks_total = 0
    migrations_per_second_total = 0.0
    for _ in range(unit.sets_per_point):
        taskset = generator.generate(unit.utilization * unit.n_cores)
        assignment = build_assignment(
            unit.algorithm, taskset, unit.n_cores, unit.overheads
        )
        if assignment is None:
            continue
        sets_accepted += 1
        split_tasks_total += assignment.n_split_tasks
        migrations_per_second = 0.0
        for split in assignment.split_tasks.values():
            subtasks_total += len(split.subtasks)
            migrations_per_second += (
                split.migration_count_per_job * SEC / split.task.period
            )
        migrations_per_second_total += migrations_per_second
    return {
        "sets_total": unit.sets_per_point,
        "sets_accepted": sets_accepted,
        "split_tasks_total": split_tasks_total,
        "subtasks_total": subtasks_total,
        "migrations_per_second_total": migrations_per_second_total,
    }


def _execute_workload(unit: WorkloadUnit) -> dict:
    # Lazy import: repro.workload.synth pulls in the servers layer,
    # which workers not running workload units never need.
    from repro.workload.synth import run_workload_unit

    return run_workload_unit(unit)


#: The executor of each unit kind, looked up by :func:`execute_unit`.
_EXECUTORS = {
    "acceptance": _execute_acceptance,
    "splitting": _execute_splitting,
    "criteria": _execute_criteria,
    "chaos": _execute_chaos,
    "verify": _execute_verify,
    "profile": _execute_profile,
    "admission": execute_admission,
    "workload": _execute_workload,
}
