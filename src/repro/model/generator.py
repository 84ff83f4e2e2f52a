"""Random task-set generation.

The PPES'11 paper evaluates "randomly generated task sets" without printing
the generator parameters; its reference [4] (Guan et al., RTAS 2010 — the
FP-TS paper) uses the standard recipe that we implement here:

* per-task utilizations from **UUniFast** (Bini & Buttazzo, 2005), optionally
  with the *discard* variant that rejects draws containing a task with
  utilization above a cap;
* periods drawn **log-uniformly** from a range (default 10 ms .. 1000 ms,
  typical embedded rates);
* WCET = round(utilization × period), clamped to at least 1 ns.

All randomness flows through an explicit ``random.Random`` instance so every
experiment is reproducible from a seed.  ``TaskSetGenerator`` makes the
C-level calls of the per-draw functions below in their order, without a
frame per draw, and derives whole batches at once (tests use them as oracle).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate, repeat, starmap
from operator import mul, sub
from typing import List, Optional, Tuple

import numpy as np

from repro.model.randfixedsum import randfixedsum
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS, US


def uunifast(rng: random.Random, n: int, total_utilization: float) -> List[float]:
    """Draw ``n`` utilizations summing to ``total_utilization`` (UUniFast).

    Produces an unbiased uniform sample from the simplex
    ``{u : sum(u) = U, u_i > 0}``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if total_utilization <= 0:
        raise ValueError("total_utilization must be positive")
    utilizations = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def uunifast_discard(
    rng: random.Random,
    n: int,
    total_utilization: float,
    max_task_utilization: float = 1.0,
    max_attempts: int = 10_000,
) -> List[float]:
    """UUniFast with rejection of draws exceeding ``max_task_utilization``.

    For multiprocessor experiments the total utilization exceeds 1, so plain
    UUniFast can emit tasks with utilization > 1 (infeasible).  The standard
    fix (Davis & Burns) is to discard and redraw.
    """
    if total_utilization > n * max_task_utilization:
        raise ValueError(
            f"cannot fit total utilization {total_utilization} with "
            f"{n} tasks capped at {max_task_utilization}"
        )
    for _attempt in range(max_attempts):
        utilizations = uunifast(rng, n, total_utilization)
        if max(utilizations) <= max_task_utilization:
            return utilizations
    raise RuntimeError(
        f"uunifast_discard failed after {max_attempts} attempts "
        f"(n={n}, U={total_utilization}, cap={max_task_utilization})"
    )


def log_uniform_periods(
    rng: random.Random,
    n: int,
    period_min: int,
    period_max: int,
    granularity: int = 100 * US,
) -> List[int]:
    """Draw ``n`` periods log-uniformly in ``[period_min, period_max]`` ns.

    Results are rounded to ``granularity`` so hyperperiods stay finite and
    simulation horizons reasonable.
    """
    if period_min <= 0 or period_max < period_min:
        raise ValueError("invalid period range")
    periods = []
    log_min = math.log(period_min)
    log_max = math.log(period_max)
    for _ in range(n):
        raw = math.exp(rng.uniform(log_min, log_max))
        quantized = max(granularity, int(round(raw / granularity)) * granularity)
        quantized = min(quantized, (period_max // granularity) * granularity)
        periods.append(quantized)
    return periods


@dataclass
class GeneratedBatch:
    """A population of generated task sets in struct-of-arrays form.

    Arrays are (sets, tasks) int64, each lane packed in rate-monotonic
    priority order (column index == priority rank); ``names`` carries
    the per-lane task names in the same order.  The arrays feed the
    batch analysis layer directly
    (``repro.analysis.batch.TaskSetPopulation.from_arrays``);
    :meth:`tasksets` materializes the identical scalar
    :class:`~repro.model.taskset.TaskSet` objects on demand (memoized)
    for fallback paths and differential checks.
    """

    wcet: np.ndarray
    period: np.ndarray
    deadline: np.ndarray
    wss: np.ndarray
    names: Tuple[Tuple[str, ...], ...]
    _memo: Optional[List[TaskSet]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_sets(self) -> int:
        return self.wcet.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.wcet.shape[1]

    def tasksets(self) -> List[TaskSet]:
        """The lanes as scalar task sets (priority = column), which is
        what ``generate_many`` returns for the same seed."""
        if self._memo is None:
            columns = (self.wcet, self.period, self.deadline, self.wss)
            priorities = range(self.n_tasks)
            self._memo = [  # Task's fields in order; priority = column
                TaskSet(map(Task, names, c, t, d, priorities, wss))
                for names, c, t, d, wss in zip(
                    self.names, *(column.tolist() for column in columns)
                )
            ]
        return self._memo


@dataclass
class TaskSetGenerator:
    """Reusable, seeded task-set factory for the evaluation harness.

    Parameters mirror the FP-TS experimental setup: ``n`` tasks whose
    utilizations are drawn by UUniFast-discard (default) or Stafford's
    RandFixedSum (``method="randfixedsum"``), log-uniform periods in
    ``[period_min, period_max]``, implicit deadlines, RM priorities.

    >>> gen = TaskSetGenerator(n_tasks=8, seed=42)
    >>> ts = gen.generate(total_utilization=3.2)
    >>> len(ts), abs(ts.total_utilization - 3.2) < 0.05
    (8, True)
    """

    n_tasks: int
    seed: int = 0
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    period_granularity: int = 100 * US
    max_task_utilization: float = 1.0
    wss_min: int = 4 * 1024
    wss_max: int = 256 * 1024
    assign_rm: bool = True
    method: str = "uunifast"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_tasks <= 0:
            raise ValueError("n_tasks must be positive")
        if self.method not in ("uunifast", "randfixedsum"):
            raise ValueError(
                f"unknown method {self.method!r}; use 'uunifast' or "
                "'randfixedsum'"
            )
        self._rng = random.Random(self.seed)

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def _draw(
        self, total: float, count: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` sets as (wcet, period, wss) int64 arrays, task order.

        Per set: UUniFast-discard attempts of ``n - 1`` ``random()`` each
        (``method="randfixedsum"`` keeps its own scalar draw), ``n``
        ``random()`` read as ``uniform(log_min, log_max)``, and ``n``
        ``randint`` draws as CPython makes them (``getrandbits(k)``, ``k``
        the width's bit length, redrawn while ``>= width``).  ``exp``
        stays per-element libm: ``np.exp`` differs in the last ulp.
        """
        n, rng, cap = self.n_tasks, self._rng, self.max_task_utilization
        width = self.wss_max - self.wss_min + 1
        if self.method == "uunifast" and not 0 < total <= n * cap:
            raise ValueError(f"cannot draw U={total} as {n} tasks <= {cap}")
        if not 0 < self.period_min <= self.period_max or width <= 0:
            raise ValueError("invalid period or working-set size range")
        attempt, lane = ((),) * (n - 1), ((),) * n  # starmap: no-arg calls
        wss_args = ((width.bit_length(),),) * n  # n getrandbits(k) calls
        exponents = [1.0 / (n - i) for i in range(1, n)]
        utilization: List[float] = []
        uniform: List[float] = []
        wss: List[int] = []
        for _ in range(count):
            if self.method == "randfixedsum":
                utilization += randfixedsum(rng, n, total, 0.0, cap)
            else:
                for _attempt in range(10_000):  # uunifast_discard's bound
                    draws = starmap(rng.random, attempt)
                    remaining = list(accumulate(
                        map(math.pow, draws, exponents), mul, initial=total
                    ))
                    shares = list(map(sub, remaining, remaining[1:]))
                    shares.append(remaining[-1])
                    if max(shares) <= cap:
                        break
                else:
                    raise RuntimeError(
                        f"uunifast_discard failed after 10000 attempts "
                        f"(n={n}, U={total}, cap={cap})"
                    )
                utilization += shares
            uniform += starmap(rng.random, lane)
            wanted = len(wss) + n
            while len(wss) < wanted:  # the first n in-range draws
                wss += filter(width.__gt__, starmap(
                    rng.getrandbits, wss_args[: wanted - len(wss)]
                ))
        log_min = math.log(self.period_min)
        span = math.log(self.period_max) - log_min
        raw = np.array(list(map(
            math.exp, (log_min + span * np.array(uniform)).tolist()
        )))
        grain = self.period_granularity
        period = np.minimum(
            np.maximum(np.rint(raw / grain).astype(np.int64) * grain, grain),
            (self.period_max // grain) * grain,
        ).reshape(count, n)
        utilization = np.array(utilization).reshape(count, n)
        wcet = np.rint(utilization * period).astype(np.int64)  # half-even
        wcet = np.minimum(np.maximum(wcet, 1), period)  # u <= 1 as well
        wss = np.array(wss, dtype=np.int64).reshape(count, n)
        return wcet, period, self.wss_min + wss

    def generate(self, total_utilization: float) -> TaskSet:
        """Generate one task set with the requested total utilization
        (the one-lane batch; task-index order without ``assign_rm``)."""
        if self.assign_rm:
            return self.generate_batch(total_utilization, 1).tasksets()[0]
        drawn = self._draw(total_utilization, 1)
        wcet, period, wss = (column[0].tolist() for column in drawn)
        names = [f"t{index:03d}" for index in range(self.n_tasks)]
        return TaskSet(  # Task's fields in order; no priority assigned
            map(Task, names, wcet, period, period, repeat(None), wss)
        )

    def generate_many(
        self, total_utilization: float, count: int
    ) -> List[TaskSet]:
        if not self.assign_rm:
            return [self.generate(total_utilization) for _ in range(count)]
        return self.generate_batch(total_utilization, count).tasksets()

    def generate_batch(
        self, total_utilization: float, count: int
    ) -> GeneratedBatch:
        """Generate ``count`` task sets as one struct-of-arrays batch.

        One :meth:`_draw` call, then one ``np.lexsort`` on (period, name
        rank) packs every lane in the order of
        ``TaskSet.assign_rate_monotonic`` (key ``(period, name)``).
        ``generate`` and ``generate_many`` are views of this batch.
        """
        if not self.assign_rm:
            raise ValueError(
                "generate_batch requires assign_rm=True: batch lanes "
                "are packed in rate-monotonic priority order"
            )
        wcet, period, wss = self._draw(total_utilization, count)
        names = np.array(
            [f"t{col:03d}" for col in range(self.n_tasks)], dtype=object
        )
        # Name rank, not column: "t1000" sorts before "t999".
        name_rank = np.argsort(np.argsort(names, kind="stable"))
        order = np.lexsort(
            (np.broadcast_to(name_rank, period.shape), period), axis=1
        )
        rows = np.arange(count)[:, None]
        period_rm = period[rows, order]
        return GeneratedBatch(
            wcet[rows, order], period_rm, period_rm.copy(), wss[rows, order],
            tuple(map(tuple, names[order].tolist())),
        )
