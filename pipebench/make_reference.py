#!/usr/bin/env python3
"""Regenerate ``reference.json``: the outputs every input case of the
in-process workloads must reproduce, at both sizes.

    python3 pipebench/make_reference.py

Run it only when a change is meant to alter those outputs, and say so
in the change; the benchmark compares every pass against this file.
"""

from __future__ import annotations

import json
import shutil
import sys

import hostspeed
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    scratch = run.ROOT / ".pipebench-tmp" / "reference"
    reference = {}
    for size, workloads in run.SIZES.items():
        for workload, make_pass in run.PASSES.items():
            cases = reference.setdefault(size, {}).setdefault(workload, {})
            for case in range(run.N_CASES):
                scratch.mkdir(parents=True)
                try:
                    result = make_pass(workloads[workload], case, scratch,
                                       hostspeed.HostProbe())
                finally:
                    shutil.rmtree(scratch)
                for problem in result["problems"]:
                    # Recorded, not fixed: the benchmark reports the case
                    # as failed on every run until the program is fixed.
                    print(f"{size}/{workload}/{case}: {problem}", flush=True)
                cases[str(case)] = result["signature"]
            print(f"{size} {workload}: {run.N_CASES} case(s)", flush=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
