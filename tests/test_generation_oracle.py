"""The generator's draw kernel against an independent per-set oracle.

``TaskSetGenerator.generate``, ``generate_many`` and ``generate_batch``
share one draw kernel, so comparing them with each other proves nothing
about the stream.  The oracle here is the plain per-set loop written
with the public per-draw functions: ``uunifast_discard`` (or
``randfixedsum``), then ``log_uniform_periods``, then one
``random.Random.randint`` per task, then the WCET rounding and the
rate-monotonic assignment of :class:`~repro.model.taskset.TaskSet`.
Every path must agree with it field for field, and leave the stream at
the same position (the next ``random()`` is the same draw).

The frozen digests pin the E3 grid and the E6 populations independently
of both implementations: they were computed from the per-set generator
before the kernel existed, and a drifted draw anywhere changes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.model.generator import (
    TaskSetGenerator,
    log_uniform_periods,
    uunifast_discard,
)
from repro.model.randfixedsum import randfixedsum
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS

# At least 20 trials, as in the other generation fuzz tests: 20 trials x
# 13 cases x 8 sets = 2080 sets, so the oracle never checks fewer than
# 2000 sets however small REPRO_FUZZ_TRIALS is set.
FUZZ_TRIALS = max(20, int(os.environ.get("REPRO_FUZZ_TRIALS", "30")))
SETS_PER_TRIAL = 8

#: (label, generator fields, utilization as a share of n x cap)
CASES = [
    ("n12-10-1000ms", dict(n_tasks=12), 0.3),
    ("n12-10-100ms", dict(n_tasks=12, period_max=100 * MS), 0.3),
    ("n1", dict(n_tasks=1), 0.7),  # no UUniFast factors at all
    ("n1-at-cap", dict(n_tasks=1), 1.0),  # the one share equals the cap
    ("n2", dict(n_tasks=2, period_max=100 * MS), 0.9),
    ("n5", dict(n_tasks=5), 0.5),
    ("n33", dict(n_tasks=33, period_max=100 * MS), 0.3),
    # about 17 discarded UUniFast attempts per accepted set
    ("tight-cap", dict(n_tasks=5, max_task_utilization=0.6), 2.0 / 3.0),
    # width 1: getrandbits(1) is rejected half the time
    ("wss-width-1", dict(n_tasks=12, wss_min=4096, wss_max=4096), 0.3),
    # width 2**10: k = 11 bits, so again about half the draws are redrawn
    ("wss-width-2^10", dict(n_tasks=12, wss_min=1000, wss_max=2023), 0.3),
    ("randfixedsum", dict(n_tasks=12, method="randfixedsum"), 0.8),
    (
        "randfixedsum-tight",
        dict(n_tasks=5, method="randfixedsum", max_task_utilization=0.6),
        2.0 / 3.0,
    ),
    ("no-rm", dict(n_tasks=6, assign_rm=False), 0.5),
]


def _oracle(fields: dict, rng: random.Random, total: float, count: int):
    """The per-set reference loop over ``rng`` (which it advances)."""
    gen = TaskSetGenerator(**fields)  # the parameters; its stream is unused
    sets = []
    for _ in range(count):
        if gen.method == "randfixedsum":
            utilizations = randfixedsum(
                rng, gen.n_tasks, total, low=0.0,
                high=gen.max_task_utilization,
            )
        else:
            utilizations = uunifast_discard(
                rng, gen.n_tasks, total, gen.max_task_utilization
            )
        periods = log_uniform_periods(
            rng, gen.n_tasks, gen.period_min, gen.period_max,
            gen.period_granularity,
        )
        tasks = []
        for index, (u, period) in enumerate(zip(utilizations, periods)):
            wcet = min(max(1, int(round(u * period))), period)
            wss = rng.randint(gen.wss_min, gen.wss_max)
            tasks.append(
                Task(name=f"t{index:03d}", wcet=wcet, period=period, wss=wss)
            )
        taskset = TaskSet(tasks)
        if gen.assign_rm:
            taskset = taskset.assign_rate_monotonic()
        sets.append(taskset)
    return sets


def _fields(taskset):
    return [
        (t.name, t.wcet, t.period, t.deadline, t.priority, t.wss)
        for t in taskset
    ]


def _batch_fields(batch):
    return [
        [
            (name, c, t, d, priority, w)
            for priority, (name, c, t, d, w) in enumerate(zip(*lane))
        ]
        for lane in zip(
            batch.names,
            batch.wcet.tolist(),
            batch.period.tolist(),
            batch.deadline.tolist(),
            batch.wss.tolist(),
        )
    ]


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "fields,share", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_every_path_matches_the_per_set_oracle(fields, share):
    for trial in range(FUZZ_TRIALS):
        seed = 9000 + trial
        gen = TaskSetGenerator(seed=seed, **fields)
        total = share * gen.n_tasks * gen.max_task_utilization
        rng = random.Random(seed)
        expected = [
            _fields(ts) for ts in _oracle(fields, rng, total, SETS_PER_TRIAL)
        ]
        next_draw = rng.random()

        many = TaskSetGenerator(seed=seed, **fields)
        assert [
            _fields(ts) for ts in many.generate_many(total, SETS_PER_TRIAL)
        ] == expected
        assert many._rng.random() == next_draw

        one = TaskSetGenerator(seed=seed, **fields)
        assert [
            _fields(one.generate(total)) for _ in range(SETS_PER_TRIAL)
        ] == expected
        assert one._rng.random() == next_draw

        if gen.assign_rm:
            batch = gen.generate_batch(total, SETS_PER_TRIAL)
            assert _batch_fields(batch) == expected
            assert [_fields(ts) for ts in batch.tasksets()] == expected
            assert gen._rng.random() == next_draw


def test_batch_calls_continue_one_stream():
    """Consecutive batches of different sizes and utilizations on one
    generator equal one oracle run over the same stream."""
    fields = dict(n_tasks=12, period_max=100 * MS)
    calls = ((2.0, 3), (3.4, 1), (3.4, 0), (1.0, 5))
    gen = TaskSetGenerator(seed=77, **fields)
    rng = random.Random(77)
    got, expected = [], []
    for total, count in calls:
        got += _batch_fields(gen.generate_batch(total, count))
        expected += [_fields(ts) for ts in _oracle(fields, rng, total, count)]
    assert got == expected
    assert gen._rng.getstate() == rng.getstate()


@pytest.mark.parametrize(
    "fields,total,error",
    [
        (dict(n_tasks=2), 3.0, ValueError),  # above n x cap
        (dict(n_tasks=3), 0.0, ValueError),  # not positive
        (dict(n_tasks=3, period_min=0), 1.0, ValueError),
        (dict(n_tasks=3, period_min=100 * MS, period_max=10 * MS), 1.0,
         ValueError),
        (dict(n_tasks=3, wss_min=10, wss_max=9), 1.0, ValueError),
    ],
    ids=["over-cap", "zero-u", "zero-period", "inverted-periods",
         "empty-wss"],
)
def test_invalid_parameters_raise(fields, total, error):
    with pytest.raises(error):
        TaskSetGenerator(seed=1, **fields).generate(total)
    with pytest.raises(error):
        TaskSetGenerator(seed=1, **fields).generate_batch(total, 2)


# ----------------------------------------------------------------------
# Frozen population digests
# ----------------------------------------------------------------------

#: SHA-256 of the E3 grid's lanes (12 tasks, 10-1000 ms, 100 sets at each
#: of U/m = 0.600, 0.625, ..., 1.000 on 4 cores, point i seeded
#: ``seed + 7919 * i``), computed by the per-set generator.
E3_DIGESTS = {
    0: "a6750b72b8d9571958a20732fd6eb13184fc3957c46f46179d985d4955d5e76c",
    1: "8e5c485fd57a1617d6a8ffa4a4baab1354454cf80f4854843d36e1943785ebe3",
    2: "60de404c5a7d69e51ce043c71a6838e09ad1858bb084280eaac315ba2f302ed4",
    3: "e274c04c93c5442db1934b7cc5a78fb73c28f9a596469c28db92e8bfe87c4fdd",
}

#: SHA-256 of E6's 20 sets per seed (12 tasks, 10-100 ms, U = 3.4, one
#: generator per seed, ``generate`` called 20 times).
E6_DIGESTS = {
    0: "686d1f58c6abcc149ac93179008fe125db7264f33ce54b217e617ca2f46b9aab",
    1: "bb20989024108c22a58eb30c0798e4b0f4919bb9fb69fe6da8c77dbb6b96ad1f",
    2: "5e799ac22811f12b80330d4a48b4e54ad11bd545d6704833dc4c0a147ab0d7e8",
    3: "caca2f3d8dc1902d95aec646858e6bf3ac15e5bd37eaffbd9a5f38a400047551",
}


def _digest(lanes) -> str:
    """Lanes of (name, wcet, period, deadline, wss) in priority order."""
    rows = [[list(task) for task in lane] for lane in lanes]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def _lanes_of_tasksets(tasksets):
    return [
        [(t.name, t.wcet, t.period, t.deadline, t.wss)
         for t in ts.sorted_by_priority()]
        for ts in tasksets
    ]


def _lanes_of_batch(batch):
    """:func:`_batch_fields` without the priority (the column index)."""
    return [[task[:4] + task[5:] for task in lane]
            for lane in _batch_fields(batch)]


@pytest.mark.parametrize("seed", sorted(E3_DIGESTS))
def test_e3_grid_digest_is_frozen(seed):
    utilizations = [round(0.600 + 0.025 * i, 3) for i in range(17)]

    def generator(index):
        return TaskSetGenerator(n_tasks=12, seed=seed + 7919 * index)

    batch_lanes, many_lanes = [], []
    for index, u in enumerate(utilizations):
        batch_lanes += _lanes_of_batch(
            generator(index).generate_batch(u * 4, 100)
        )
        many_lanes += _lanes_of_tasksets(
            generator(index).generate_many(u * 4, 100)
        )
    assert _digest(batch_lanes) == E3_DIGESTS[seed]
    assert _digest(many_lanes) == E3_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(E6_DIGESTS))
def test_e6_population_digest_is_frozen(seed):
    def generator():
        return TaskSetGenerator(
            n_tasks=12, seed=seed, period_min=10 * MS, period_max=100 * MS
        )

    one = generator()
    scalar = _lanes_of_tasksets([one.generate(0.85 * 4) for _ in range(20)])
    assert _digest(scalar) == E6_DIGESTS[seed]
    batch = _lanes_of_batch(generator().generate_batch(0.85 * 4, 20))
    assert _digest(batch) == E6_DIGESTS[seed]
