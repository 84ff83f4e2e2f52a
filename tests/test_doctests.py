"""Run the doctests embedded in the public API docstrings."""

from __future__ import annotations

import doctest

import pytest

import repro.analysis.bounds
import repro.analysis.edf
import repro.analysis.global_bounds
import repro.analysis.oracle
import repro.cache.model
import repro.kernel.global_sim
import repro.model.task
import repro.model.taskset
import repro.model.time
import repro.model.generator
import repro.overhead.model
import repro.semipart.cd_split
import repro.semipart.fpts
import repro.structures.binomial_heap
import repro.structures.lean_heap
import repro.structures.rbtree

MODULES = [
    repro.analysis.bounds,
    repro.analysis.edf,
    repro.analysis.global_bounds,
    repro.analysis.oracle,
    repro.cache.model,
    repro.kernel.global_sim,
    repro.model.task,
    repro.model.taskset,
    repro.model.time,
    repro.model.generator,
    repro.overhead.model,
    repro.semipart.cd_split,
    repro.semipart.fpts,
    repro.structures.binomial_heap,
    repro.structures.lean_heap,
    repro.structures.rbtree,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__}: no doctests found"
    assert results.failed == 0, f"{module.__name__}: {results.failed} failures"
