"""Differential cross-checks: two independent computations of the same
quantity must agree.  One dedicated test per pair."""

from __future__ import annotations

from repro.verify import (
    DIFFERENTIAL_PAIRS,
    batch_vs_scalar,
    context_vs_oracle,
    run_differential_suite,
    serial_vs_parallel,
    sim_vs_oracle,
    tick_vs_event,
)


def test_sim_vs_oracle():
    """Response-time analysis and the event simulator agree on single-core
    FP schedulability (implicit-deadline synchronous-release task sets)."""
    assert sim_vs_oracle(trials=12, seed=101) == []


def test_serial_vs_parallel():
    """The experiment engine returns bit-identical payloads serially and
    over a process pool."""
    assert serial_vs_parallel(seed=5, jobs=2) == []


def test_tick_vs_event():
    """With periods quantized to the tick, tick-driven release scanning
    reproduces the event-driven schedule exactly."""
    assert tick_vs_event(seed=4) == []


def test_context_vs_oracle():
    """The per-core analysis contexts agree with the per-entry RTA and
    EDF oracles on every verdict, response and maximal budget over
    random probe/commit/install/remove/clone/budget-search sequences."""
    assert context_vs_oracle(trials=30, seed=11) == []


def test_batch_vs_scalar():
    """The struct-of-arrays batch kernels return bit-identical
    accept/reject vectors and per-entry response times to the scalar
    pipeline."""
    assert batch_vs_scalar(trials=8, seed=9) == []


def test_suite_covers_all_pairs():
    report = run_differential_suite(seed=1, trials=5, jobs=2)
    assert set(report) == set(DIFFERENTIAL_PAIRS)
    assert len(DIFFERENTIAL_PAIRS) == 7
    assert all(diffs == [] for diffs in report.values())
