"""Host-speed probe: scales measured times to one reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by 10-30% over tens of seconds and minutes, as other tenants come and
go.  Runs made an hour apart would differ by that much with no change
to the program.  So while a run measures, a ``HostProbe`` interrupts
the main thread every ``PERIOD_S`` (SIGALRM) and times one fixed piece
of pure-Python work, ``probe_work``: integer fixed-point iterations,
sorting and small containers, in the style of the analysis code but
written here, so that no change to the program under test changes it.

A timed window (``HostProbe.window``) reports its wall time minus the
probe time inside it, and the host's speed over the window: the
reference probe time ``REFERENCE_S`` divided by the mean probe time
measured in and around the window.  A time multiplied by that speed
reads as if measured on a host on which one probe takes
``REFERENCE_S``; a faster program still reads faster in proportion.

The probe costs about 3% of the wall time while it runs.  A traced run
never starts it, so the layer spans cover the whole pass.
"""

from __future__ import annotations

import gc
import mmap
import random
import signal
import struct
import time
from contextlib import contextmanager
from pathlib import Path

PERIOD_S = 0.05
# The median of one probe on a 2-core x86 container (Xeon, KVM).
REFERENCE_S = 1.4e-3


def probe_work() -> int:
    """A fixed, deterministic piece of interpreter work (~1.4 ms)."""
    rng = random.Random(12345)
    total = 0
    for _ in range(12):
        tasks = sorted(
            [(rng.randint(1, 60), rng.randint(100, 1000)) for _ in range(12)],
            key=lambda task: task[1],
        )
        for index, (wcet, period) in enumerate(tasks):
            response = wcet
            while True:
                demand = wcet + sum(
                    -(-response // other) * cost
                    for cost, other in tasks[:index]
                )
                if demand == response or demand > period:
                    break
                response = demand
            total += response
        bins = {}
        for index, (wcet, period) in enumerate(tasks):
            bins.setdefault(index % 4, []).append(wcet / period)
        total += len(repr(sorted(bins.items())))
    return total


def time_probe() -> float:
    """Seconds one ``probe_work`` takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SharedCounters:
    """(probe seconds, probe count) totals in a small shared file, so
    the client can read a server's probes.  A sequence number, odd
    while the writer is mid-update, keeps the reader from a torn pair."""

    _FORMAT = "<Qdq"

    def __init__(self, path: Path, create: bool = False) -> None:
        size = struct.calcsize(self._FORMAT)
        if create:
            path.write_bytes(bytes(size))
        with open(path, "r+b") as handle:
            self._map = mmap.mmap(handle.fileno(), size)
        self._seq = 0

    def publish(self, total_s: float, count: int) -> None:
        self._seq += 1
        struct.pack_into(self._FORMAT, self._map, 0, self._seq, total_s, count)
        self._seq += 1
        struct.pack_into(self._FORMAT, self._map, 0, self._seq, total_s, count)

    def read(self):
        while True:
            seq, total_s, count = struct.unpack_from(self._FORMAT, self._map)
            again = struct.unpack_from(self._FORMAT, self._map)[0]
            if seq % 2 == 0 and seq == again:
                return total_s, count

    def close(self) -> None:
        self._map.close()


class Window:
    """One timed window: ``seconds`` of work and the host ``speed``."""

    seconds: float = 0.0
    speed: float = 1.0

    @property
    def scaled_s(self) -> float:
        """The work's seconds at the reference host speed."""
        return self.seconds * self.speed


class HostProbe:
    """Times ``probe_work`` on SIGALRM in the main thread while started."""

    def __init__(self, shared: SharedCounters | None = None) -> None:
        self.total_s = 0.0
        self.count = 0
        self.running = False
        self._busy = False
        self._shared = shared
        self._previous = None

    def _record(self, seconds: float) -> None:
        self.total_s += seconds
        self.count += 1
        if self._shared is not None:
            self._shared.publish(self.total_s, self.count)

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:  # an alarm that lands inside a probe is dropped
            return
        self._busy = True
        try:
            self._record(time_probe())
        finally:
            self._busy = False

    def start(self) -> None:
        if self.running:
            return
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False

    @contextmanager
    def window(self):
        """Time the block.  While the probe runs, one probe just before
        and one just after join the probes inside to give the speed; a
        probe that is not running gives wall time and speed 1."""
        window = Window()
        if not self.running:
            start = time.perf_counter()
            yield window
            window.seconds = time.perf_counter() - start
            return
        before = time_probe()
        total_s, count = self.total_s, self.count
        start = time.perf_counter()
        yield window
        wall = time.perf_counter() - start
        inside_s, inside = self.total_s - total_s, self.count - count
        after = time_probe()
        window.seconds = wall - inside_s
        window.speed = REFERENCE_S * (inside + 2) / (inside_s + before + after)


def speed_between(first, second) -> float:
    """Host speed from two ``SharedCounters.read`` totals."""
    probe_s, count = second[0] - first[0], second[1] - first[1]
    return REFERENCE_S * count / probe_s if count else 1.0
