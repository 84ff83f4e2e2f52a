"""Model-based property tests: the kernel's pointer-based priority
structures against a trivially correct sorted-list reference, and the
lean ready queue of unobserved simulations against the binomial heap.

Each trial interleaves a few hundred random operations, mirroring every
one on the real structure and on the model, and cross-checks results,
sizes, and the structures' own internal invariants as it goes.  Keys are
``(priority, seq)`` tuples with unique ``seq``, exactly the shape the
simulator inserts, so min-extraction order is total and unambiguous.
"""

from __future__ import annotations

import random

import pytest

from repro.structures.binomial_heap import BinomialHeap
from repro.structures.lean_heap import LeanHeap
from repro.structures.rbtree import RedBlackTree

N_SEEDS = 20
N_OPS = 200


def _new_key(rng, counter):
    return (rng.randint(0, 50), counter)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_binomial_heap_against_sorted_model(seed):
    rng = random.Random(1000 + seed)
    heap = BinomialHeap()
    model = {}  # key -> value
    handles = {}  # key -> HeapHandle
    counter = 0

    for step in range(N_OPS):
        op = rng.random()
        if op < 0.40 or not model:
            key = _new_key(rng, counter)
            counter += 1
            value = f"v{counter}"
            handles[key] = heap.insert(key, value)
            model[key] = value
        elif op < 0.60:
            expect = min(model)
            assert heap.find_min() == (expect, model[expect])
            key, value = heap.extract_min()
            assert (key, value) == (expect, model[expect])
            del model[expect]
            del handles[expect]
        elif op < 0.75:
            key = rng.choice(list(model))
            heap.delete(handles.pop(key))
            del model[key]
        elif op < 0.90:
            key = rng.choice(list(model))
            new_key = (rng.randint(-10, key[0]), key[1])
            if new_key < key:
                heap.decrease_key(handles[key], new_key)
                handles[new_key] = handles.pop(key)
                model[new_key] = model.pop(key)
        else:
            # Merge a freshly built heap in; the donor must come back empty.
            other = BinomialHeap()
            for _ in range(rng.randint(0, 5)):
                key = _new_key(rng, counter)
                counter += 1
                value = f"m{counter}"
                handles[key] = other.insert(key, value)
                model[key] = value
            heap.merge(other)
            assert len(other) == 0
        assert len(heap) == len(model)
        if step % 25 == 0:
            heap.check_invariants()

    heap.check_invariants()
    assert sorted(key for key, _value in heap.items()) == sorted(model)
    # Drain: extraction order must equal the model's sorted order.
    drained = []
    while len(heap):
        drained.append(heap.extract_min())
    assert drained == [(k, model[k]) for k in sorted(model)]


def test_binomial_heap_error_paths():
    heap = BinomialHeap()
    handle = heap.insert((5, 0), "x")
    with pytest.raises(ValueError):
        heap.decrease_key(handle, (9, 0))  # larger key
    with pytest.raises(ValueError):
        heap.merge(heap)  # self-merge
    heap.delete(handle)
    with pytest.raises(KeyError):
        heap.delete(handle)  # detached handle


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_rbtree_against_sorted_model(seed):
    rng = random.Random(2000 + seed)
    tree = RedBlackTree()
    model = {}  # key -> value
    nodes = {}  # key -> _RBNode
    counter = 0

    for step in range(N_OPS):
        op = rng.random()
        if op < 0.45 or not model:
            key = _new_key(rng, counter)
            counter += 1
            value = f"v{counter}"
            nodes[key] = tree.insert(key, value)
            model[key] = value
        elif op < 0.65:
            expect = min(model)
            assert tree.min() == (expect, model[expect])
            assert tree.min_node() is nodes[expect]
            assert tree.pop_min() == (expect, model[expect])
            del model[expect]
            del nodes[expect]
        elif op < 0.85:
            key = rng.choice(list(model))
            tree.remove(nodes.pop(key))
            del model[key]
        else:
            key = rng.choice(list(model))
            found = tree.find(key)
            assert found is not None and found.key == key
            missing = (99, -1 - counter)  # never inserted
            assert tree.find(missing) is None
        assert len(tree) == len(model)
        if step % 25 == 0:
            tree.check_invariants()

    tree.check_invariants()
    drained = []
    while len(tree):
        drained.append(tree.pop_min())
    assert drained == [(k, model[k]) for k in sorted(model)]


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_lean_heap_matches_binomial_heap(seed):
    """The simulator's unobserved ready queue against the modelled one:
    random interleavings of the three operations the simulator uses,
    with unique ``(rank, seq)`` keys, return identical sequences."""
    rng = random.Random(3000 + seed)
    lean = LeanHeap()
    modelled = BinomialHeap()
    seq = 0
    for _step in range(N_OPS):
        op = rng.random()
        if op < 0.45 or not modelled:
            key = (rng.randint(0, 8), seq)
            seq += 1
            value = f"job{seq}"
            lean.insert(key, value)
            modelled.insert(key, value)
        elif op < 0.70:
            assert lean.find_min() == modelled.find_min()
        else:
            assert lean.extract_min() == modelled.extract_min()
        assert len(lean) == len(modelled)
        assert bool(lean) == bool(modelled)
    drained = []
    while lean:
        drained.append(lean.extract_min())
    expected = []
    while modelled:
        expected.append(modelled.extract_min())
    assert drained == expected
    with pytest.raises(IndexError):
        lean.find_min()
    with pytest.raises(IndexError):
        lean.extract_min()


def test_rbtree_detached_node_rejected():
    tree = RedBlackTree()
    node = tree.insert((1, 0), "x")
    tree.remove(node)
    with pytest.raises(KeyError):
        tree.remove(node)
