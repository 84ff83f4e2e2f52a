"""The experiment engine: cache resolution + parallel fan-out + merge,
hardened against worker crashes, hangs, and interrupted campaigns.

``ExperimentEngine.run(units)`` returns one payload per unit, **in unit
order**, regardless of ``jobs`` or cache state.  The pipeline is:

1. resolve every unit against the resume journal (if ``resume=True``)
   and the :class:`ResultCache` (if configured), counting hits/misses;
2. execute the misses — in-process for ``jobs == 1``, otherwise over a
   :class:`concurrent.futures.ProcessPoolExecutor`.  In-process, the
   batch acceptance points of a sweep run as merged blocks, one packing
   pass per block (:func:`~repro.engine.units.unit_blocks`); a block that
   raises is rerun unit by unit, so failures stay per unit.  Pools:

   * with no robustness options set, the original chunked ``pool.map``
     fast path runs (large chunks amortize pickling);
   * with ``unit_timeout``/``retries``/``journal`` set, units are
     submitted individually so each future can be awaited with a
     wall-clock timeout and failed units can be retried with
     exponential backoff (plus deterministic jitter);

3. a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
   died) fails only that wave: the pool is rebuilt for the next retry
   attempt, and after ``max_pool_failures`` breakages the engine falls
   back to serial in-process execution — a campaign never dies with the
   pool;
4. freshly computed payloads are appended to the journal (checkpoint)
   and written back to the cache;
5. units that exhaust every attempt are **not** raised: their payload
   slot is ``None`` and a :class:`UnitFailure` manifest lands in
   :attr:`ExperimentEngine.last_failures` for the caller to surface.

Because every unit is seeded independently and executed purely, a
parallel, retried, or resumed run is bit-identical to a serial run — the
robustness machinery only changes *where* and *when* units execute,
never *what* they compute.
"""

from __future__ import annotations

import json
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.cache import ResultCache
from repro.engine.units import (
    WorkUnit,
    execute_unit,
    execute_units,
    unit_blocks,
    unit_fingerprint,
)
from repro.metrics.registry import active as _metrics_active


@dataclass(frozen=True)
class UnitFailure:
    """One unit that exhausted every execution attempt."""

    index: int  # position in the run's unit list
    kind: str  # the unit's kind tag
    fingerprint: str  # content hash (stable across runs)
    error: str  # last error observed
    attempts: int  # how many times execution was tried

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class EngineStats:
    """Counters accumulated across every ``run()`` of one engine."""

    units: int = 0
    computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    journal_hits: int = 0
    journal_corrupt: int = 0
    retried: int = 0
    failed: int = 0
    pool_failures: int = 0
    jobs: int = 1
    wall_s: float = 0.0

    def summary(self) -> str:
        parts = [
            f"{self.units} unit(s)",
            f"jobs={self.jobs}",
            f"computed={self.computed}",
        ]
        if self.cache_hits or self.cache_misses:
            parts.append(
                f"cache {self.cache_hits} hit(s) / "
                f"{self.cache_misses} miss(es)"
            )
        if self.journal_hits:
            parts.append(f"resumed={self.journal_hits}")
        if self.journal_corrupt:
            parts.append(f"journal-corrupt={self.journal_corrupt}")
        if self.retried:
            parts.append(f"retried={self.retried}")
        if self.failed:
            parts.append(f"FAILED={self.failed}")
        if self.pool_failures:
            parts.append(f"pool-failures={self.pool_failures}")
        parts.append(f"{self.wall_s:.2f}s")
        return "engine: " + ", ".join(parts)


class ExperimentEngine:
    """Executes work units serially or across a process pool.

    Parameters
    ----------
    jobs:
        Worker-process count.  1 (the default) executes in-process with
        no multiprocessing machinery at all.
    cache:
        Optional :class:`ResultCache` (or a directory path for one).
        Off by default; hit/miss counters land in :attr:`stats`.
    chunks_per_worker:
        Dispatch granularity of the fast path: misses are sent to the
        pool in chunks of roughly ``len(misses) / (jobs *
        chunks_per_worker)`` units — large enough to amortize pickling,
        small enough to load-balance.
    unit_timeout:
        Per-unit wall-clock budget in seconds.  A pooled unit whose
        result is not available within the budget (measured from when
        the engine starts waiting on it) fails that attempt.  ``None``
        (default) waits forever.  Serial execution cannot preempt a
        running unit, so the timeout applies to pooled execution only.
    retries:
        How many times a failed (crashed, hung, or raising) unit is
        re-executed before it is declared failed.  0 by default.
    backoff_base:
        First-retry backoff in seconds; attempt ``k`` sleeps
        ``backoff_base * 2**(k-1)`` plus up to 25% deterministic jitter.
    max_pool_failures:
        After this many :class:`BrokenProcessPool` events the engine
        stops rebuilding pools and finishes the run serially.
    journal:
        Optional path to a JSONL checkpoint: every computed payload is
        appended (and flushed) as ``{"key": fingerprint, "payload":
        ...}``.  With ``resume=False`` an existing journal is truncated
        at the start of the first run.
    resume:
        Load the journal before executing and treat every unit whose
        fingerprint appears there as already done — an interrupted
        campaign recomputes only unfinished units.
    metrics:
        Optional :class:`~repro.metrics.registry.MetricsRegistry` (a
        disabled one counts as absent).  Every ``run()`` folds its
        engine counters into it (``engine_units_total``,
        ``engine_cache_hits_total``, ...) and observes the run's wall
        time in the ``wall_engine_run_ms`` histogram.  Purely
        observational: payloads, ordering, and failure handling are
        unaffected.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        chunks_per_worker: int = 4,
        unit_timeout: Optional[float] = None,
        retries: int = 0,
        backoff_base: float = 0.25,
        max_pool_failures: int = 3,
        journal: Union[str, Path, None] = None,
        resume: bool = False,
        metrics=None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be at least 1")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError("unit_timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if max_pool_failures < 1:
            raise ValueError("max_pool_failures must be at least 1")
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        self.jobs = jobs
        self.cache = cache
        self.chunks_per_worker = chunks_per_worker
        self.unit_timeout = unit_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.max_pool_failures = max_pool_failures
        self.journal = Path(journal) if journal is not None else None
        self.resume = resume
        self.stats = EngineStats(jobs=jobs)
        self.last_failures: List[UnitFailure] = []
        self._journal_ready = False
        self._journal_seen: Dict[str, dict] = {}
        self.metrics = _metrics_active(metrics)

    # ------------------------------------------------------------------
    # Journal (checkpoint/resume)
    # ------------------------------------------------------------------

    def _prepare_journal(self) -> None:
        """Load (resume) or truncate the journal on the first run."""
        if self.journal is None or self._journal_ready:
            return
        self._journal_ready = True
        if self.resume and self.journal.exists():
            self._journal_seen, corrupt = _load_journal(self.journal)
            if corrupt:
                # A SIGKILL mid-append (or disk trouble) leaves garbage
                # lines behind; resuming past them loses at most the
                # units they recorded — recomputed, never wrong — but
                # the damage must be visible, not silent.
                self.stats.journal_corrupt += corrupt
                if self.metrics is not None:
                    self.metrics.counter(
                        "engine_journal_corrupt_total"
                    ).inc(corrupt)
                sys.stderr.write(
                    f"engine: journal {self.journal}: skipped {corrupt} "
                    f"corrupt line(s); the unit(s) they recorded will be "
                    f"recomputed\n"
                )
        else:
            self.journal.parent.mkdir(parents=True, exist_ok=True)
            self.journal.write_text("", encoding="utf-8")

    def _journal_append(self, key: Optional[str], payload: dict) -> None:
        if self.journal is None or key is None:
            return
        line = json.dumps(
            {"key": key, "payload": payload}, sort_keys=True
        )
        with self.journal.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def _robust(self) -> bool:
        """Whether the per-unit submit path (timeout/retry/journal) is on."""
        return (
            self.unit_timeout is not None
            or self.retries > 0
            or self.journal is not None
        )

    def run(self, units: Sequence[WorkUnit]) -> List[Optional[dict]]:
        """Execute ``units``; payloads in unit order (None = failed)."""
        start = time.perf_counter()
        self.last_failures = []
        self._prepare_journal()
        results: List[Optional[dict]] = [None] * len(units)
        keys: List[Optional[str]] = [None] * len(units)
        need_keys = self.cache is not None or self.journal is not None
        pending: List[int] = []
        for index, unit in enumerate(units):
            if need_keys:
                keys[index] = unit_fingerprint(unit)
            if (
                self.journal is not None
                and keys[index] in self._journal_seen
            ):
                results[index] = self._journal_seen[keys[index]]
                self.stats.journal_hits += 1
                continue
            if self.cache is not None:
                payload = self.cache.load(keys[index])
                if payload is not None:
                    self.stats.cache_hits += 1
                    results[index] = payload
                    self._journal_append(keys[index], payload)
                    continue
                self.stats.cache_misses += 1
            pending.append(index)

        computed: List[int] = []
        if pending:
            if self._robust:
                computed = self._run_robust(units, pending, keys, results)
            else:
                computed = self._run_fast(units, pending, results)
            if self.cache is not None:
                for index in computed:
                    self.cache.store(keys[index], results[index])

        self.stats.units += len(units)
        self.stats.computed += len(computed)
        self.stats.failed += len(self.last_failures)
        wall_s = time.perf_counter() - start
        self.stats.wall_s += wall_s
        if self.metrics is not None:
            self._record_run_metrics(units, computed, wall_s)
        return results

    def _record_run_metrics(
        self, units: Sequence[WorkUnit], computed: List[int], wall_s: float
    ) -> None:
        """Fold one run's engine counters into the attached registry."""
        metrics = self.metrics
        metrics.counter("engine_runs_total").inc()
        metrics.counter("engine_units_total").inc(len(units))
        metrics.counter("engine_computed_total").inc(len(computed))
        metrics.counter("engine_failed_total").inc(len(self.last_failures))
        metrics.gauge("engine_jobs").set(self.jobs)
        for stat_name in ("cache_hits", "cache_misses", "journal_hits",
                          "retried", "pool_failures"):
            value = getattr(self.stats, stat_name)
            gauge = metrics.gauge(f"engine_{stat_name}")
            gauge.set(max(gauge.value, value))
        metrics.histogram(
            "wall_engine_run_ms",
            bounds=(1, 10, 100, 1_000, 10_000, 60_000, 600_000),
        ).observe(int(wall_s * 1000))

    # ------------------------------------------------------------------
    # Fast path: chunked pool.map (no timeout/retry/journal)
    # ------------------------------------------------------------------

    def _run_fast(
        self,
        units: Sequence[WorkUnit],
        pending: List[int],
        results: List[Optional[dict]],
    ) -> List[int]:
        if self.jobs > 1 and len(pending) > 1:
            todo = [units[index] for index in pending]
            workers = min(self.jobs, len(pending))
            chunksize = max(
                1,
                -(-len(pending) // (self.jobs * self.chunks_per_worker)),
            )
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    payloads = list(
                        pool.map(execute_unit, todo, chunksize=chunksize)
                    )
            except (BrokenProcessPool, OSError):
                # The pool died mid-map (a worker crashed, or the OS
                # refused to fork).  pool.map gives no per-unit results
                # back, so recompute everything serially — slower, but
                # the run completes.
                self.stats.pool_failures += 1
            else:
                for index, payload in zip(pending, payloads):
                    results[index] = payload
                return list(pending)
        for index, payload, error in _execute_inline(units, pending):
            if error is not None:
                raise error
            results[index] = payload
        return list(pending)

    # ------------------------------------------------------------------
    # Robust path: per-unit futures, waves of retries
    # ------------------------------------------------------------------

    def _run_robust(
        self,
        units: Sequence[WorkUnit],
        pending: List[int],
        keys: List[Optional[str]],
        results: List[Optional[dict]],
    ) -> List[int]:
        computed: List[int] = []
        remaining = list(pending)
        attempts = {index: 0 for index in pending}
        last_error = {index: "" for index in pending}
        use_pool = self.jobs > 1
        for attempt in range(self.retries + 1):
            if not remaining:
                break
            if attempt > 0:
                self.stats.retried += len(remaining)
                salt = keys[remaining[0]] or unit_fingerprint(
                    units[remaining[0]]
                )
                time.sleep(self._backoff_delay(attempt, salt))
            if use_pool and self.stats.pool_failures >= self.max_pool_failures:
                use_pool = False  # pool unusable: finish serially
            if use_pool:
                done, errors = self._pool_wave(units, remaining, results)
            else:
                done, errors = self._serial_wave(units, remaining, results)
            for index in done:
                attempts[index] += 1
                computed.append(index)
                self._journal_append(keys[index], results[index])
            for index, message in errors.items():
                attempts[index] += 1
                last_error[index] = message
            remaining = [index for index in remaining if index in errors]
        for index in remaining:
            self.last_failures.append(
                UnitFailure(
                    index=index,
                    kind=getattr(units[index], "kind", "?"),
                    fingerprint=keys[index] or unit_fingerprint(units[index]),
                    error=last_error[index],
                    attempts=attempts[index],
                )
            )
        computed.sort()
        return computed

    def _backoff_delay(self, attempt: int, salt: str = "") -> float:
        """Exponential backoff with deterministic jitter (up to +25%).

        The jitter is seeded from ``salt`` — the fingerprint of the
        wave's first remaining unit — so two engines retrying *different*
        work (e.g. the service's worker shards recovering from the same
        pool crash) wake up at different instants instead of thundering
        back in lockstep, while any single engine's schedule stays
        reproducible run over run.
        """
        base = self.backoff_base * (2 ** (attempt - 1))
        jitter = (
            random.Random(f"repro-backoff:{salt}:{attempt}").random() * 0.25
        )
        return base * (1.0 + jitter)

    def _pool_wave(
        self,
        units: Sequence[WorkUnit],
        wave: List[int],
        results: List[Optional[dict]],
    ):
        """One attempt over a fresh pool; returns (done, errors)."""
        done: List[int] = []
        errors: Dict[int, str] = {}
        workers = min(self.jobs, len(wave))
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except OSError as exc:
            self.stats.pool_failures = self.max_pool_failures
            for index in wave:
                errors[index] = f"pool unavailable: {exc}"
            return done, errors
        broken = False
        timed_out = False
        try:
            futures = {
                index: pool.submit(execute_unit, units[index])
                for index in wave
            }
            for index in wave:
                future = futures[index]
                if broken:
                    # A dead worker poisons the whole pool; everything
                    # not yet collected fails this attempt immediately.
                    if not future.done():
                        errors[index] = "worker pool broke mid-wave"
                        continue
                try:
                    results[index] = future.result(timeout=self.unit_timeout)
                    done.append(index)
                except _FutureTimeout:
                    timed_out = True
                    errors[index] = (
                        f"timed out after {self.unit_timeout:g}s"
                    )
                except BrokenProcessPool as exc:
                    broken = True
                    errors[index] = f"worker crashed: {exc}"
                except Exception as exc:  # unit raised in the worker
                    errors[index] = f"{type(exc).__name__}: {exc}"
        finally:
            # Abandon hung workers instead of joining them; a fresh pool
            # is built for the next wave anyway.
            pool.shutdown(wait=not timed_out and not broken,
                          cancel_futures=True)
        if broken or timed_out:
            self.stats.pool_failures += 1
        return done, errors

    def _serial_wave(
        self,
        units: Sequence[WorkUnit],
        wave: List[int],
        results: List[Optional[dict]],
    ):
        """One in-process attempt (no timeout enforcement possible)."""
        done: List[int] = []
        errors: Dict[int, str] = {}
        for index, payload, error in _execute_inline(units, wave):
            if error is None:
                results[index] = payload
                done.append(index)
            else:
                errors[index] = f"{type(error).__name__}: {error}"
        return done, errors


def _execute_inline(units: Sequence[WorkUnit], indices: List[int]):
    """Execute ``units[i]`` for ``i`` in ``indices`` in this process.

    Yields ``(index, payload, error)`` with exactly one of payload and
    error set.  Units that :func:`~repro.engine.units.unit_blocks` groups
    (batch acceptance points of one sweep) run as one
    :func:`~repro.engine.units.execute_units` block; a block that raises
    is rerun unit by unit through :func:`execute_unit`, so failures stay
    per unit, as do single-unit blocks.
    """
    for block in unit_blocks([units[index] for index in indices]):
        members = [indices[position] for position in block]
        if len(members) > 1:
            try:
                payloads = execute_units([units[i] for i in members])
            except Exception:
                pass  # rerun one by one below
            else:
                for index, payload in zip(members, payloads):
                    yield index, payload, None
                continue
        for index in members:
            try:
                payload = execute_unit(units[index])
            except Exception as exc:
                yield index, None, exc
            else:
                yield index, payload, None


def _load_journal(path: Path) -> Tuple[Dict[str, dict], int]:
    """Parse a JSONL journal into ``(payloads-by-key, corrupt-lines)``.

    Truncated/corrupt lines (exactly what a SIGKILL mid-append leaves
    behind) and records of the wrong shape are skipped and *counted*, so
    the caller can surface the damage instead of silently recomputing.
    """
    seen: Dict[str, dict] = {}
    corrupt = 0
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return seen, corrupt
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            corrupt += 1  # half-written line from an interrupted run
            continue
        if (
            isinstance(record, dict)
            and isinstance(record.get("key"), str)
            and isinstance(record.get("payload"), dict)
        ):
            seen[record["key"]] = record["payload"]
        else:
            corrupt += 1
    return seen, corrupt
