"""Golden split plans: FP-TS and PDMS assignments, hashed.

Any change to how the splitters search for body budgets (or prune
hopeless sets) must leave every verdict and every split plan — each
piece's core, budget, deadline, jitter and local priority — exactly as
it was.  This pins a SHA-256 of the sort-keyed
:func:`~repro.model.io.assignment_to_dict` of every assignment (``null``
for a rejection) over a fixed population: 12 tasks on 4 cores,
generator seeds 0-2, 20 sets at each U/m in {0.8, 0.85, 0.9, 0.95,
0.975, 1.0}, under zero and paper (``paper_core_i7(3)``) overheads —
720 sets per algorithm, with many splits and many rejections.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.algorithms import build_assignment
from repro.model.generator import TaskSetGenerator
from repro.model.io import assignment_to_dict
from repro.overhead.model import OverheadModel

#: (digest, accepted sets) per algorithm, recorded with the bisecting
#: body-budget search.
GOLDEN = {
    "FP-TS": (
        "bceb15171abc5f268646bc3a177927327b3dfab5921f44c0e5a913d84db07f89",
        479,
    ),
    "PDMS": (
        "626bdd47162e4c95e1e9213c977ea369508e1d8c71ac66f56ec98f597ca198a3",
        468,
    ),
}


def _plans(algorithm: str):
    digest = hashlib.sha256()
    accepted = 0
    for model in (OverheadModel.zero(), OverheadModel.paper_core_i7(3)):
        for seed in range(3):
            generator = TaskSetGenerator(n_tasks=12, seed=seed)
            for load in (0.8, 0.85, 0.9, 0.95, 0.975, 1.0):
                for taskset in generator.generate_many(load * 4, 20):
                    assignment = build_assignment(
                        algorithm, taskset, 4, model
                    )
                    accepted += assignment is not None
                    plan = (
                        None
                        if assignment is None
                        else assignment_to_dict(assignment)
                    )
                    digest.update(json.dumps(plan, sort_keys=True).encode())
                    digest.update(b"\n")
    return digest.hexdigest(), accepted


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_split_plans_match_golden(algorithm):
    assert _plans(algorithm) == GOLDEN[algorithm]
