"""``generate_batch`` must be a bit-identical view of ``generate_many``.

Two generators built from the same seed must produce the **same task
sets, integer for integer** — once as struct-of-arrays lanes and once as
scalar :class:`~repro.model.taskset.TaskSet` objects.  This pins the
property the whole batch analysis layer rests on: the batch and scalar
experiment arms analyze the same inputs.  Both methods now run the same
draw kernel, so this agreement alone does not pin the stream;
``tests/test_generation_oracle.py`` compares every path against an
independent per-set loop and frozen population digests.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.model.generator import TaskSetGenerator
from repro.model.time import MS

FUZZ_TRIALS = max(20, int(os.environ.get("REPRO_FUZZ_TRIALS", "30")))


def _generator(seed: int) -> TaskSetGenerator:
    return TaskSetGenerator(
        n_tasks=12,
        seed=seed,
        period_min=10 * MS,
        period_max=1000 * MS,
    )


def _task_tuples(taskset):
    return [
        (t.name, t.wcet, t.period, t.deadline, t.wss, t.priority)
        for t in taskset.sorted_by_priority()
    ]


@pytest.mark.fuzz
def test_generate_batch_bit_identical_to_generate_many():
    """Same seed, same draw order: the batch arrays and the scalar task
    sets must agree on every field, across seeds and utilizations."""
    for trial in range(FUZZ_TRIALS):
        seed = 4000 + trial
        total = (0.3, 0.6, 0.9, 1.2)[trial % 4] * 4
        batch = _generator(seed).generate_batch(total, 5)
        scalar = _generator(seed).generate_many(total, 5)
        assert batch.n_sets == len(scalar) == 5
        for row, taskset in enumerate(scalar):
            lane = taskset.sorted_by_priority()
            assert batch.names[row] == tuple(t.name for t in lane)
            assert batch.wcet[row].tolist() == [t.wcet for t in lane]
            assert batch.period[row].tolist() == [t.period for t in lane]
            assert batch.deadline[row].tolist() == [
                t.deadline for t in lane
            ]
            assert batch.wss[row].tolist() == [t.wss for t in lane]


def test_generate_batch_tasksets_materialization():
    """``tasksets()`` equals ``generate_many`` object for object (same
    fields, same priorities) and is memoized."""
    batch = _generator(11).generate_batch(0.8 * 4, 4)
    scalar = _generator(11).generate_many(0.8 * 4, 4)
    materialized = batch.tasksets()
    assert [_task_tuples(ts) for ts in materialized] == [
        _task_tuples(ts) for ts in scalar
    ]
    assert batch.tasksets() is materialized


def test_generate_batch_continues_the_same_stream():
    """Interleaved calls on ONE generator advance the shared RNG stream
    exactly like the scalar path: batch-then-batch equals many-then-many
    from the same seed."""
    gen_a = _generator(23)
    first_a = gen_a.generate_batch(2.0, 3)
    second_a = gen_a.generate_batch(3.0, 3)
    gen_b = _generator(23)
    first_b = gen_b.generate_many(2.0, 3)
    second_b = gen_b.generate_many(3.0, 3)
    for batch, scalar in ((first_a, first_b), (second_a, second_b)):
        assert [_task_tuples(ts) for ts in batch.tasksets()] == [
            _task_tuples(ts) for ts in scalar
        ]


def test_generate_batch_requires_rm_assignment():
    generator = TaskSetGenerator(n_tasks=4, seed=1, assign_rm=False)
    with pytest.raises(ValueError, match="assign_rm"):
        generator.generate_batch(1.0, 2)


def test_generate_batch_lane_invariants():
    """Lanes are packed in rate-monotonic order with implicit deadlines
    and WCETs clamped into [1, period]."""
    batch = _generator(5).generate_batch(0.9 * 4, 8)
    assert bool(np.all(np.diff(batch.period, axis=1) >= 0))
    assert np.array_equal(batch.deadline, batch.period)
    assert bool(np.all(batch.wcet >= 1))
    assert bool(np.all(batch.wcet <= batch.period))
