"""Discrete-event engine.

A minimal, deterministic event queue: events fire in (time, insertion
sequence) order, so simultaneous events are processed in the order they
were scheduled — which makes every simulation run exactly reproducible.
Cancellation is O(1) by flagging; cancelled events are skipped on pop.

Performance note: the heap stores ``(time, priority, seq, event)`` tuples
rather than :class:`Event` objects, so ``heappush``/``heappop`` compare
plain tuples entirely in C.  ``seq`` is unique, so comparisons never reach
the event object itself.  Event-object comparisons (``__lt__``) are kept
only for API compatibility.

Not every simulated event passes through the queue.  When a core's
next kernel op is provably the next event — it ends within the horizon
and strictly before the earliest queued entry — the simulator runs it
inline (see ``KernelSim._finish_op``).  The queue would have popped it
next anyway, so the order of events is unchanged; only the
push and pop are saved.  A tie goes through the queue, because this
ordering puts completions, releases and older op ends first at the
same instant.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Same-instant event ordering (lower runs first): work-chunk
#: completions (0) precede release timers (10), so a job finishing
#: exactly at the next release is not misclassified as an overrun;
#: kernel-op ends (20) come last, so every release arriving at the same
#: instant joins the current kernel episode *before* the final
#: scheduling decision — a tick handler that wakes all expired timers
#: and then calls schedule() once, like the real kernel.
_COMPLETION_PRIORITY = 0
_RELEASE_PRIORITY = 10
_OP_PRIORITY = 20


class Event:
    """A scheduled callback.  Use :meth:`cancel` to revoke it.

    ``priority`` breaks ties between events at the same instant: lower
    values run first.  The simulator runs completions at priority 0, task
    releases at 10 and kernel-op ends at 20, so a job finishing exactly
    when its successor is released is processed *before* the release — the
    boundary case of an exactly-deadline-filling schedule.
    """

    __slots__ = ("time", "priority", "seq", "fn", "cancelled")

    def __init__(
        self, time: int, priority: int, seq: int, fn: Callable[[int], None]
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{state})"


#: Heap entry: ``(time, priority, seq, event_or_None, fn)``.  The event
#: slot is None for callbacks scheduled through :meth:`schedule_fast`,
#: which cannot be cancelled and therefore need no Event allocation.
_Entry = Tuple[int, int, int, Optional[Event], Callable[[int], None]]


class EventQueue:
    """Priority queue of events ordered by (time, priority, sequence)."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self.now = 0

    def schedule(
        self, time: int, fn: Callable[[int], None], priority: int = 0
    ) -> Event:
        """Schedule ``fn(time)`` to run at ``time`` (must not be in the past)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, fn)
        heapq.heappush(self._heap, (time, priority, seq, event, fn))
        return event

    def schedule_fast(
        self, time: int, fn: Callable[[int], None], priority: int = 0
    ) -> None:
        """Schedule a callback that will never be cancelled.

        Skips the :class:`Event` allocation entirely — the hot path for
        the simulator's kernel-op completions and release timers, which
        are fired exactly once and never revoked.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, None, fn))

    def pop_next(self) -> Optional[Event]:
        """Pop the next live event, advancing ``now``; None when drained."""
        heap = self._heap
        while heap:
            time, priority, seq, event, fn = heapq.heappop(heap)
            if event is None:
                event = Event(time, priority, seq, fn)
            elif event.cancelled:
                continue
            self.now = time
            return event
        return None

    def run_until(self, horizon: int) -> None:
        """Execute events up to and including ``horizon``."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if heap[0][0] > horizon:
                break
            entry = pop(heap)
            event = entry[3]
            if event is not None and event.cancelled:
                continue
            time = entry[0]
            self.now = time
            entry[4](time)
        if horizon > self.now:
            self.now = horizon

    def __len__(self) -> int:
        return sum(
            1
            for entry in self._heap
            if entry[3] is None or not entry[3].cancelled
        )

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0][3] is not None and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
