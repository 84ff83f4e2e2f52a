"""The service's resilience core: the load-bearing part of `repro serve`.

Serving schedulability analysis to real traffic means the interesting
engineering is not the HTTP plumbing but what happens when the system is
loaded, broken, or both.  This module collects the four mechanisms the
service composes, each deterministic under an injectable clock and seed
so the chaos suite can pin exact schedules:

* :class:`TokenBucket` — request-rate load shedding.  A request that
  finds no token is answered ``429`` with a truthful ``Retry-After``.
* :class:`BoundedQueue` — admission-queue back-pressure.  The service
  bounds *concurrently admitted* work; beyond the bound it sheds rather
  than queueing unboundedly (the classic overload death spiral).
* :class:`DeadlineBudget` — a per-request wall-clock budget, decremented
  as the request moves through the ladder and propagated down to the
  engine's per-unit timeouts.  A request never outlives its budget: it
  is answered (possibly degraded) or explicitly shed, never hung.
* :class:`CircuitBreaker` — per-worker-shard failure isolation with the
  classic closed/open/half-open protocol and seeded deterministic
  exponential backoff, so a crashing shard stops receiving traffic
  until a probe proves it healthy again.
* :class:`DegradationLadder` — the explicit quality-of-service ladder:
  ``scalar`` (incremental contexts) → ``cache`` (answer warm queries
  only) → ``shed``.  Every downgrade is counted in the metrics
  registry, so ``/metrics`` shows exactly how much quality was traded
  for survival.

None of these classes knows about HTTP or asyncio; they are plain
synchronous state machines driven by the service layer (and, in tests,
by a fake clock).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple

from repro.metrics.registry import MetricsRegistry, active as _metrics_active

Clock = Callable[[], float]

#: The ladder's rungs, best first; the service walks left to right when
#: rungs fail.
MODES: Tuple[str, ...] = ("scalar", "cache", "shed")


def mode_index(mode: str) -> int:
    try:
        return MODES.index(mode)
    except ValueError:
        raise ValueError(
            f"unknown degradation mode {mode!r}; modes: {MODES}"
        ) from None


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, at most ``burst`` stored.

    ``try_acquire`` either takes a token (True) or reports the shed,
    and :meth:`retry_after` tells the shed client how long until a
    token will exist — an honest ``Retry-After``, not a guess.
    A non-positive ``rate`` disables the limiter (always admits).
    """

    def __init__(
        self, rate: float, burst: int, clock: Optional[Clock] = None
    ) -> None:
        if burst < 1:
            raise ValueError("burst must be at least 1")
        import time

        self.rate = float(rate)
        self.burst = int(burst)
        self.clock = clock if clock is not None else time.monotonic
        self._tokens = float(burst)
        self._last = self.clock()

    def _refill(self) -> None:
        now = self.clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self) -> bool:
        if self.rate <= 0:
            return True
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one full token exists (0 if one does already)."""
        if self.rate <= 0:
            return 0.0
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class BoundedQueue:
    """Back-pressure on concurrently admitted requests.

    Not an actual queue: the service admits a request by ``try_enter``
    and releases the slot in ``leave``.  Holding the bound here (rather
    than letting asyncio accept unboundedly) keeps latency under
    overload flat — excess requests are shed immediately with 429.
    ``limit=0`` sheds everything (useful to force the path in tests).
    """

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("queue limit must be non-negative")
        self.limit = limit
        self.depth = 0

    def try_enter(self) -> bool:
        if self.depth >= self.limit:
            return False
        self.depth += 1
        return True

    def leave(self) -> None:
        if self.depth > 0:
            self.depth -= 1


class DeadlineBudget:
    """A per-request wall-clock budget.

    Created when the request is admitted; every stage asks
    :meth:`remaining` before starting and :meth:`sub_timeout` when
    deriving a child timeout (e.g. the engine's ``unit_timeout``), so
    the deadline propagates down instead of multiplying.
    """

    def __init__(
        self, budget_s: float, clock: Optional[Clock] = None
    ) -> None:
        import time

        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_s = float(budget_s)
        self.clock = clock if clock is not None else time.monotonic
        self._start = self.clock()

    def elapsed(self) -> float:
        return max(0.0, self.clock() - self._start)

    def remaining(self) -> float:
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def sub_timeout(self, cap: Optional[float] = None) -> float:
        """The budget left, optionally capped (never below 1 ms)."""
        remaining = self.remaining()
        if cap is not None:
            remaining = min(remaining, cap)
        return max(0.001, remaining)


class CircuitBreaker:
    """Per-shard closed/open/half-open circuit breaker.

    * **closed** — traffic flows; ``failures`` consecutive failures trip
      the breaker open.
    * **open** — :meth:`allow` refuses until the backoff window elapses;
      the window is ``reset_timeout * 2**(trips-1)`` plus up to +25%
      jitter seeded from ``(seed, name, trips)`` — deterministic for a
      fixed seed, decorrelated across shards (no thundering herd of
      simultaneous probes).
    * **half-open** — exactly one probe request is allowed through; its
      success closes the breaker, its failure re-opens with a doubled
      window.

    Transitions are reported through ``on_transition(name, old, new)``
    (the service counts them in ``svc_breaker_transitions_total``).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        max_backoff: float = 60.0,
        seed: int = 0,
        clock: Optional[Clock] = None,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        import time

        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.max_backoff = max_backoff
        self.seed = seed
        self.clock = clock if clock is not None else time.monotonic
        self.on_transition = on_transition
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0  # times the breaker has opened
        self._opened_at = 0.0
        self._probing = False

    def _transition(self, new_state: str) -> None:
        old, self.state = self.state, new_state
        if old != new_state and self.on_transition is not None:
            self.on_transition(self.name, old, new_state)

    def backoff(self, trips: Optional[int] = None) -> float:
        """The open window after the ``trips``-th trip (deterministic)."""
        if trips is None:
            trips = self.trips
        base = self.reset_timeout * (2 ** max(0, trips - 1))
        jitter = random.Random(
            f"repro-breaker:{self.seed}:{self.name}:{trips}"
        ).random() * 0.25
        return min(self.max_backoff, base * (1.0 + jitter))

    def allow(self) -> bool:
        """May a request be sent to this shard right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.clock() - self._opened_at >= self.backoff():
                self._transition(self.HALF_OPEN)
                self._probing = True
                return True
            return False
        # half-open: exactly one probe in flight
        if not self._probing:
            self._probing = True
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the breaker would next allow a probe."""
        if self.state != self.OPEN:
            return 0.0
        return max(
            0.0, self.backoff() - (self.clock() - self._opened_at)
        )

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probing = False
        if self.state != self.CLOSED:
            self.trips = 0
            self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            self._probing = False
            self._open()
        elif (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._open()

    def _open(self) -> None:
        self.trips += 1
        self._opened_at = self.clock()
        self._transition(self.OPEN)


class DegradationLadder:
    """The service-wide quality level: ``scalar → cache → shed``.

    The ladder holds the *starting* rung for new requests.  Failures
    (``report_failure``) push it one rung toward ``shed`` once
    ``trip_threshold`` of them accumulate at the current rung; a quiet
    window (``recovery_s`` seconds without a failure, checked by
    :meth:`recover` as each request arrives) climbs one rung back toward
    ``scalar``.  The climb cannot wait for a compute success: a ladder
    resting on the cache rung never computes.  Every move is counted:
    ``svc_degraded_total{to=...}`` going down,
    ``svc_recovered_total{to=...}`` going up, and the current rung is
    exported as the ``svc_ladder_level`` gauge (0 = scalar ... 2 = shed).

    Requests may additionally be degraded *individually* below the
    ladder's rung (open breaker on the routed shard, expired deadline);
    the service counts those through :meth:`count_downgrade` so the same
    metric family covers both causes.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
        trip_threshold: int = 2,
        recovery_s: float = 5.0,
    ) -> None:
        import time

        if trip_threshold < 1:
            raise ValueError("trip_threshold must be at least 1")
        self.metrics = _metrics_active(metrics)
        self.clock = clock if clock is not None else time.monotonic
        self.trip_threshold = trip_threshold
        self.recovery_s = recovery_s
        self._level = 0
        self._failures_at_level = 0
        self._last_failure = self.clock() - recovery_s
        self._export_level()

    @property
    def mode(self) -> str:
        return MODES[self._level]

    def _export_level(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("svc_ladder_level").set(self._level)

    def count_downgrade(self, to_mode: str, reason: str) -> None:
        """Count one per-request downgrade (ladder rung unchanged)."""
        if self.metrics is not None:
            self.metrics.counter(
                "svc_degraded_total", to=to_mode, reason=reason
            ).inc()

    def report_failure(self, reason: str = "failure") -> None:
        """A rung failed to serve a request; maybe step down."""
        self._last_failure = self.clock()
        self._failures_at_level += 1
        if (
            self._failures_at_level >= self.trip_threshold
            and self._level < len(MODES) - 1
        ):
            self._level += 1
            self._failures_at_level = 0
            self.count_downgrade(MODES[self._level], reason)
            self._export_level()

    def recover(self) -> None:
        """Climb one rung if no rung failed for ``recovery_s`` seconds."""
        if (
            self._level > 0
            and self.clock() - self._last_failure >= self.recovery_s
        ):
            self._level -= 1
            self._failures_at_level = 0
            if self.metrics is not None:
                self.metrics.counter(
                    "svc_recovered_total", to=MODES[self._level]
                ).inc()
            self._export_level()

    def force(self, mode: str) -> None:
        """Move the ladder to ``mode`` (tests and operational override).

        The rung holds for one recovery window, as after any step down.
        """
        self._level = mode_index(mode)
        self._failures_at_level = 0
        self._last_failure = self.clock()
        self._export_level()
