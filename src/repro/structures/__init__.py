"""Core data structures used by the semi-partitioned scheduler.

The PPES'11 implementation (Zhang, Guan & Yi, Section 2) keeps one *ready
queue* per core, implemented as a **binomial heap**, and one *sleep queue*
per core, implemented as a **red-black tree**.  This package provides faithful
from-scratch implementations of both, plus instrumented wrappers used by the
overhead-measurement harness (Section 3 of the paper), and the
:class:`LeanHeap` ready queue of simulations that do not measure themselves
(same extraction order, no binomial trees).
"""

from repro.structures.binomial_heap import BinomialHeap
from repro.structures.lean_heap import LeanHeap
from repro.structures.rbtree import RedBlackTree
from repro.structures.instrumented import (
    InstrumentedHeap,
    InstrumentedTree,
    OperationStats,
)

__all__ = [
    "BinomialHeap",
    "LeanHeap",
    "RedBlackTree",
    "InstrumentedHeap",
    "InstrumentedTree",
    "OperationStats",
]
