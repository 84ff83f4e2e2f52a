"""`repro serve` with the host-speed probe of ``hostspeed.py``.

    python serve_probed.py COUNTERS [repro serve options...]

SIGUSR1 starts the probe and SIGUSR2 stops it; the probe totals are
kept in the shared file ``COUNTERS`` for the load generator to read.
The probe is off until the first SIGUSR1, so boots are not slowed.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import hostspeed


def main() -> int:
    shared = hostspeed.SharedCounters(Path(sys.argv[1]), create=True)
    probe = hostspeed.HostProbe(shared)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: probe.start())
    signal.signal(signal.SIGUSR2, lambda _signum, _frame: probe.stop())
    try:
        from repro import cli

        return cli.main(["serve", *sys.argv[2:]])
    finally:
        probe.stop()
        shared.close()


if __name__ == "__main__":
    sys.exit(main())
