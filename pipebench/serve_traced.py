"""`repro serve` with the layer wrappers of ``spans.py`` installed.

    python serve_traced.py OUT.json [repro serve options...]

Serves until interrupted, then writes the span summary, the event
counters and the deltas of the analysis work counters to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    from repro import cli
    from repro.analysis import BATCH_STATS, STATS

    tracer = spans.Tracer()
    spans.install(tracer)
    stats_before = STATS.snapshot()
    batch_before = BATCH_STATS.snapshot()
    try:
        return cli.main(["serve", *sys.argv[2:]])
    finally:
        stats_after = STATS.snapshot()
        batch_after = BATCH_STATS.snapshot()
        out.write_text(
            json.dumps(
                {
                    "summary": spans.summarize(tracer),
                    "counts": dict(tracer.counts),
                    "analysis": {
                        key: stats_after[key] - stats_before[key]
                        for key in stats_after
                    },
                    "batch": {
                        key: batch_after[key] - batch_before[key]
                        for key in batch_after
                    },
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main())
