"""A ready queue that keeps only the order of its entries.

The paper's ready queue is a :class:`~repro.structures.binomial_heap.
BinomialHeap`, and a simulation that measures its own queue operations
(the δ/θ-vs-N measurement of Section 3) must run on it.  Every other
simulation depends only on the order in which the queue hands out jobs.
:class:`LeanHeap` keeps that order with the standard library's C-backed
``heapq`` over a plain list of ``(key, value)`` tuples.

The simulator's keys are ``(rank, job_seq)`` tuples with a unique
``job_seq``, so two entries never compare equal, ``heapq`` never
compares two values, and extraction order is exactly the binomial
heap's (pinned by ``tests/test_model_based_structures.py``).  There are
no handles and no ``delete``: nothing in the simulator removes a queued
job other than through ``extract_min``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Tuple


class LeanHeap(list):
    """A min-heap over ``(key, value)`` tuples with the ready-queue API.

    A ``list`` subclass, so that ``len`` and truth tests stay C calls on
    the simulator's hot path.  ``insert`` therefore *replaces*
    ``list.insert``: it takes a key and a value, not an index.

    >>> heap = LeanHeap()
    >>> heap.insert((5, 1), "five")
    >>> heap.insert((2, 2), "two")
    >>> heap.find_min()
    ((2, 2), 'two')
    >>> heap.extract_min()
    ((2, 2), 'two')
    >>> len(heap)
    1
    """

    __slots__ = ()

    def insert(self, key: Any, value: Any = None) -> None:  # type: ignore[override]
        """Insert ``value`` with priority ``key`` (keys must be unique)."""
        heappush(self, (key, value))

    def find_min(self) -> Tuple[Any, Any]:
        """Return ``(key, value)`` of the minimum entry without removing it
        (``IndexError`` when empty, like the binomial heap)."""
        return self[0]

    def extract_min(self) -> Tuple[Any, Any]:
        """Remove and return ``(key, value)`` of the minimum entry
        (``IndexError`` when empty)."""
        return heappop(self)
