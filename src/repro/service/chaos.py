"""Seeded chaos harness for the service: deterministic injected failure.

The robustness claims of `repro serve` are only worth what the tests can
demonstrate, and the tests can only demonstrate what they can *inject*.
A :class:`ChaosController` sits between the shard pool and the real
execution functions and, driven entirely by its seed and per-site call
counters, decides when to

* **kill a shard** — raise :class:`ShardKilled` inside the shard's
  worker, as a crashed worker process would (the supervisor respawns
  the shard and the breaker counts the failure);
* **slow a unit** — sleep past the request's deadline budget, as an
  analysis stuck on a pathological task set would;
* **corrupt a cache entry** — overwrite the content-addressed payload
  with garbage, as a torn write or disk fault would (the cache must
  quarantine it and report a miss, never return it);
* **skew the clock** — make the deadline clock *drift*: every reading
  lands ``clock_skew_s`` further ahead of the true clock, so budgets
  expire "early" the way they do on a host whose timers misbehave.

Determinism contract: a decision at injection site ``site`` on its
``n``-th visit is drawn from ``random.Random(f"chaos:{seed}:{site}:{n}")``
— independent of thread scheduling, shard interleaving, or wall time, so
a chaos test's exact failure sequence is pinned by its seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional


class ShardKilled(RuntimeError):
    """Injected equivalent of a shard's worker dying mid-request."""


@dataclass
class ChaosConfig:
    """What to inject, and how often.

    Count-based knobs (``kill_first_n``, ``slow_first_n``) fire on the
    first N visits to their site — the sharpest tool for pinning exact
    ladder walks.  Probability knobs (``kill_probability`` ...) draw
    from the seeded per-site stream.
    """

    seed: int = 0
    # shard kills (site: "execute")
    kill_first_n: int = 0
    kill_probability: float = 0.0
    # slow units (site: "slow")
    slow_first_n: int = 0
    slow_probability: float = 0.0
    slow_s: float = 0.0
    # deadline-clock drift: every reading lands this many further
    # seconds ahead of the true clock (a constant offset would cancel
    # inside a budget that both starts and checks on the same clock)
    clock_skew_s: float = 0.0


class ChaosController:
    """Applies a :class:`ChaosConfig` at the pool's injection sites."""

    def __init__(self, config: Optional[ChaosConfig] = None) -> None:
        self.config = config if config is not None else ChaosConfig()
        self._visits: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}  # what actually fired

    def _visit(self, site: str) -> int:
        count = self._visits.get(site, 0)
        self._visits[site] = count + 1
        return count

    def _draw(self, site: str, visit: int) -> float:
        return random.Random(
            f"chaos:{self.config.seed}:{site}:{visit}"
        ).random()

    def _fire(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1

    # -- injection sites -------------------------------------------------

    def before_execute(self, shard_index: int, kind: str) -> None:
        """Called in the shard's worker thread before real execution.

        May raise :class:`ShardKilled` (killed shard) or sleep
        (slow unit); ``kind`` is the work-unit kind, for logs only.
        """
        cfg = self.config
        visit = self._visit("execute")
        if visit < cfg.kill_first_n or (
            cfg.kill_probability > 0
            and self._draw("execute", visit) < cfg.kill_probability
        ):
            self._fire("kill")
            raise ShardKilled(
                f"chaos: shard {shard_index} killed executing {kind} "
                f"(visit {visit})"
            )
        slow_visit = self._visit("slow")
        if slow_visit < cfg.slow_first_n or (
            cfg.slow_probability > 0
            and self._draw("slow", slow_visit) < cfg.slow_probability
        ):
            self._fire("slow")
            time.sleep(cfg.slow_s)

    def skew_clock(
        self, clock: Callable[[], float]
    ) -> Callable[[], float]:
        """Wrap ``clock`` with the configured drift (0 = identity).

        The n-th reading returns ``clock() + n * clock_skew_s``: a
        deterministically drifting clock, so a deadline budget started
        on reading *n* has already lost ``clock_skew_s`` seconds by its
        first expiry check on reading *n+1*.
        """
        skew = self.config.clock_skew_s
        if not skew:
            return clock
        readings = {"n": 0}

        def drifting() -> float:
            readings["n"] += 1
            return clock() + skew * readings["n"]

        return drifting

    @staticmethod
    def corrupt_cache_entry(cache, fingerprint: str) -> bool:
        """Overwrite a cached payload with garbage (torn-write fault).

        Returns False if the entry does not exist.  The cache layer is
        expected to quarantine the damage on next load and report a
        miss — tested by the chaos suite's cache-only tier walk.
        """
        path = cache.path_for(fingerprint)
        if not path.is_file():
            return False
        path.write_text('{"verdicts": {tru', encoding="utf-8")
        return True
