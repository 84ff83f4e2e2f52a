"""Unit tests for the service resilience core (``repro.service.resilience``).

Every mechanism is a plain synchronous state machine under an injectable
clock and seed, so these tests drive exact schedules with a fake clock:
token refill, queue bounds, budget expiry, the full breaker protocol
(including the pinned seeded backoff), and the ladder's step-down /
climb-back rules with their metric counters.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.service.resilience import (
    MODES,
    BoundedQueue,
    CircuitBreaker,
    DeadlineBudget,
    DegradationLadder,
    TokenBucket,
    mode_index,
)


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_modes_and_mode_index():
    assert MODES == ("scalar", "cache", "shed")
    assert [mode_index(m) for m in MODES] == [0, 1, 2]
    with pytest.raises(ValueError, match="unknown degradation mode"):
        mode_index("turbo")


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        # 2 tokens/s: after 0.5s exactly one token exists.
        clock.advance(0.5)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_is_honest(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.5, burst=1, clock=clock)
        assert bucket.try_acquire()
        # Empty: a full token takes 1/0.5 = 2 seconds.
        assert bucket.retry_after() == pytest.approx(2.0)
        clock.advance(1.5)
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.retry_after() == 0.0
        assert bucket.try_acquire()

    def test_nonpositive_rate_disables(self):
        bucket = TokenBucket(rate=0.0, burst=1, clock=FakeClock())
        assert all(bucket.try_acquire() for _ in range(100))
        assert bucket.retry_after() == 0.0

    def test_burst_validation(self):
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0)


class TestBoundedQueue:
    def test_bound_and_release(self):
        queue = BoundedQueue(limit=2)
        assert queue.try_enter()
        assert queue.try_enter()
        assert not queue.try_enter()
        queue.leave()
        assert queue.try_enter()

    def test_zero_limit_sheds_everything(self):
        queue = BoundedQueue(limit=0)
        assert not queue.try_enter()

    def test_leave_never_goes_negative(self):
        queue = BoundedQueue(limit=1)
        queue.leave()
        assert queue.depth == 0
        assert queue.try_enter()

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BoundedQueue(limit=-1)


class TestDeadlineBudget:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        budget = DeadlineBudget(2.0, clock=clock)
        assert budget.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert budget.remaining() == pytest.approx(0.5)
        assert not budget.expired()
        clock.advance(1.0)
        assert budget.remaining() == 0.0
        assert budget.expired()

    def test_sub_timeout_caps_and_floors(self):
        clock = FakeClock()
        budget = DeadlineBudget(5.0, clock=clock)
        assert budget.sub_timeout() == pytest.approx(5.0)
        assert budget.sub_timeout(cap=1.0) == pytest.approx(1.0)
        clock.advance(10.0)  # long expired
        assert budget.sub_timeout() == 0.001  # never zero/negative

    def test_positive_budget_required(self):
        with pytest.raises(ValueError, match="positive"):
            DeadlineBudget(0.0, clock=FakeClock())


def expected_backoff(
    seed: int, name: str, trips: int, reset_timeout: float = 1.0
) -> float:
    base = reset_timeout * (2 ** max(0, trips - 1))
    jitter = (
        random.Random(f"repro-breaker:{seed}:{name}:{trips}").random()
        * 0.25
    )
    return base * (1.0 + jitter)


class TestCircuitBreaker:
    def make(self, clock, transitions=None, **kwargs):
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("reset_timeout", 1.0)
        record = (
            None
            if transitions is None
            else lambda name, old, new: transitions.append((old, new))
        )
        return CircuitBreaker(
            "shard0", clock=clock, on_transition=record, **kwargs
        )

    def test_trips_open_after_threshold(self):
        clock = FakeClock()
        transitions = []
        breaker = self.make(clock, transitions)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert transitions == [("closed", "open")]
        assert not breaker.allow()

    def test_backoff_schedule_is_pinned(self):
        breaker = self.make(FakeClock(), seed=7)
        for trips in (1, 2, 3):
            assert breaker.backoff(trips) == expected_backoff(
                7, "shard0", trips
            )
        # Doubling base, bounded by max_backoff.
        capped = self.make(FakeClock(), max_backoff=2.5)
        assert capped.backoff(10) == 2.5

    def test_half_open_single_probe_then_close(self):
        clock = FakeClock()
        transitions = []
        breaker = self.make(clock, transitions)
        breaker.record_failure()
        breaker.record_failure()  # open, trips=1
        window = breaker.backoff(1)
        clock.advance(window - 0.01)
        assert not breaker.allow()
        clock.advance(0.02)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # exactly one probe in flight
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == 0
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_failed_probe_reopens_with_doubled_window(self):
        clock = FakeClock()
        breaker = self.make(clock, seed=3)
        breaker.record_failure()
        breaker.record_failure()  # trip 1
        clock.advance(breaker.backoff(1) + 0.01)
        assert breaker.allow()
        breaker.record_failure()  # failed probe: trip 2
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert breaker.backoff() == expected_backoff(3, "shard0", 2)
        assert breaker.backoff() > breaker.backoff(1)

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        window = breaker.backoff()
        assert breaker.retry_after() == pytest.approx(window)
        clock.advance(window / 2)
        assert breaker.retry_after() == pytest.approx(window / 2)
        assert breaker.retry_after() >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker("s", failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            CircuitBreaker("s", reset_timeout=0.0)


class TestDegradationLadder:
    def make(self, clock, **kwargs):
        registry = MetricsRegistry()
        kwargs.setdefault("trip_threshold", 2)
        kwargs.setdefault("recovery_s", 5.0)
        return DegradationLadder(
            metrics=registry, clock=clock, **kwargs
        ), registry

    def test_steps_down_after_trip_threshold(self):
        clock = FakeClock()
        ladder, registry = self.make(clock)
        assert ladder.mode == "scalar"
        ladder.report_failure("shard")
        assert ladder.mode == "scalar"
        ladder.report_failure("shard")
        assert ladder.mode == "cache"
        assert (
            registry.value(
                "svc_degraded_total", to="cache", reason="shard"
            )
            == 1
        )
        assert registry.value("svc_ladder_level") == 1

    def test_walks_all_the_way_to_shed_and_stays(self):
        clock = FakeClock()
        ladder, registry = self.make(clock, trip_threshold=1)
        for expected in ("cache", "shed", "shed"):
            ladder.report_failure("storm")
            assert ladder.mode == expected
        assert registry.value("svc_ladder_level") == 2

    def test_recovers_after_quiet_window(self):
        clock = FakeClock()
        ladder, registry = self.make(clock, trip_threshold=1)
        ladder.report_failure("blip")
        assert ladder.mode == "cache"
        ladder.recover()  # too soon: failure was just now
        assert ladder.mode == "cache"
        clock.advance(5.0)
        ladder.recover()
        assert ladder.mode == "scalar"
        assert (
            registry.value("svc_recovered_total", to="scalar") == 1
        )
        assert registry.value("svc_ladder_level") == 0
        ladder.recover()  # already at the top rung
        assert ladder.mode == "scalar"

    def test_count_downgrade_does_not_move_the_rung(self):
        ladder, registry = self.make(FakeClock())
        ladder.count_downgrade("cache", "breaker")
        assert ladder.mode == "scalar"
        assert (
            registry.value(
                "svc_degraded_total", to="cache", reason="breaker"
            )
            == 1
        )

    def test_force_pins_the_rung(self):
        clock = FakeClock()
        ladder, registry = self.make(clock)
        ladder.force("cache")
        assert ladder.mode == "cache"
        assert registry.value("svc_ladder_level") == 1
        # The forced rung holds for one recovery window, then climbs.
        ladder.recover()
        assert ladder.mode == "cache"
        clock.advance(5.0)
        ladder.recover()
        assert ladder.mode == "scalar"
        with pytest.raises(ValueError):
            ladder.force("warp")

    def test_trip_threshold_validation(self):
        with pytest.raises(ValueError, match="trip_threshold"):
            DegradationLadder(trip_threshold=0)
