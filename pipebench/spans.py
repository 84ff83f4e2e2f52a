"""In-memory span tracer and the layer wrappers of the traced run.

The wrappers are installed only for a traced pass (``install`` returns
the function that takes them out again).  Each one replaces a public
name where its caller looks it up, records one span per call — name,
start, end, span id, parent span id — and keeps everything in memory;
``summarize`` turns the spans into per-layer call counts, total time
and self time (span minus the part of it that child spans cover).

Parents come from a context variable, so interleaved asyncio requests
keep separate span stacks.  Work handed to a service shard thread is
run inside a copy of the submitting context, which keeps the shard's
spans attached to the request that caused them.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import Counter, defaultdict

_CURRENT = contextvars.ContextVar("pipebench_span", default=None)


class Tracer:
    """Spans plus event counters for one traced pass (or server life)."""

    def __init__(self) -> None:
        # (name, start, end, span_id, parent_id); parent 0 = top level
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, key: str, amount: int) -> None:
        """Add to an event counter (shard threads count concurrently)."""
        with self._lock:
            self.counts[key] += amount

    def _enter(self, name):
        """Open a span unless the innermost one has the same name
        (``generate_many`` calling ``generate`` is one generation call)."""
        parent = _CURRENT.get()
        if parent is not None and parent[0] == name:
            return None
        span_id = next(self._ids)
        token = _CURRENT.set((name, span_id))
        return token, span_id, parent[1] if parent is not None else 0

    def _leave(self, name, opened, start) -> None:
        end = time.perf_counter()
        token, span_id, parent_id = opened
        _CURRENT.reset(token)
        self.spans.append((name, start, end, span_id, parent_id))

    def wrap(self, name, fn, on_result=None):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            opened = self._enter(name)
            if opened is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, opened, start)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, name, fn, wanted=None):
        """Coroutine-function version of :meth:`wrap`; ``wanted(*args)``
        false means the call is passed through untraced."""

        async def traced(*args, **kwargs):
            opened = None
            if wanted is None or wanted(*args):
                opened = self._enter(name)
            if opened is None:
                return await fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._leave(name, opened, start)

        traced.__wrapped__ = fn
        return traced


def covered(intervals, lo=None, hi=None) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(tracer: Tracer) -> dict:
    """Per layer ``{"calls", "total_s", "self_s"}`` plus ``top_s``, the
    wall time that top-level spans cover."""
    children = defaultdict(list)
    for _name, start, end, _span_id, parent_id in tracer.spans:
        children[parent_id].append((start, end))
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for name, start, end, span_id, _parent in tracer.spans:
        entry = layers[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered(
            children.get(span_id, ()), start, end
        )
    return {"layers": dict(layers), "top_s": covered(children.get(0, ()))}


def install(tracer: Tracer):
    """Wrap every layer's public entry point; returns the undo function."""
    from repro.engine import executor as engine_executor
    from repro.engine.cache import ResultCache
    from repro.engine.executor import ExperimentEngine
    from repro.experiments import algorithms, validate
    from repro.kernel.sim import KernelSim
    from repro.model.generator import TaskSetGenerator
    from repro.partition import heuristics
    from repro.service import app as service_app
    from repro.service.shards import ShardPool

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for method in ("generate", "generate_many", "generate_batch"):
        patch(
            TaskSetGenerator,
            method,
            tracer.wrap("model.generate", getattr(TaskSetGenerator, method)),
        )
    patch(
        algorithms,
        "inflate_taskset",
        tracer.wrap("overhead.inflate", algorithms.inflate_taskset),
    )

    def fpts_verdict(assignment):
        tracer.count("fpts_accepted", assignment is not None)

    patch(
        algorithms,
        "fpts_partition",
        tracer.wrap("semipart.fpts", algorithms.fpts_partition, fpts_verdict),
    )
    # The registry's FFD/WFD/BFD/NFD entries hold their partitioner in a
    # closure cell, which is where build_assignment looks it up.
    scalar_partitioners = {
        getattr(heuristics, name): tracer.wrap(
            "partition", getattr(heuristics, name)
        )
        for name in dir(heuristics)
        if name.startswith("partition_") and name.endswith("_decreasing")
    }
    for spec in algorithms.ALGORITHMS.values():
        for cell in spec.fn.__closure__ or ():
            inner = cell.cell_contents
            if callable(inner) and inner in scalar_partitioners:
                patch(cell, "cell_contents", scalar_partitioners[inner])
    patch(
        algorithms,
        "batch_partition_accept_multi",
        tracer.wrap("analysis.batch", algorithms.batch_partition_accept_multi),
    )

    def sim_releases(result):
        tracer.count("sim_releases", result.releases)

    patch(KernelSim, "run", tracer.wrap("kernel.sim", KernelSim.run, sim_releases))
    patch(
        validate,
        "validate_trace",
        tracer.wrap("trace.validate", validate.validate_trace),
    )

    patch(ExperimentEngine, "run", tracer.wrap("engine.run", ExperimentEngine.run))
    execute_unit = engine_executor.execute_unit
    by_kind = {}

    def traced_execute_unit(unit):
        if unit.kind not in by_kind:
            by_kind[unit.kind] = tracer.wrap(
                f"engine.unit.{unit.kind}", execute_unit
            )
        return by_kind[unit.kind](unit)

    patch(engine_executor, "execute_unit", traced_execute_unit)
    for method in ("store", "load"):
        patch(
            ResultCache,
            method,
            tracer.wrap(f"engine.cache.{method}", getattr(ResultCache, method)),
        )

    patch(
        service_app.ServiceApp,
        "handle",
        tracer.wrap_async(
            "service.handle",
            service_app.ServiceApp.handle,
            wanted=lambda _app, method, path, *_: (
                method == "POST" and path == "/v1/admission"
            ),
        ),
    )
    patch(
        service_app,
        "unit_fingerprint",
        tracer.wrap("service.fingerprint", service_app.unit_fingerprint),
    )
    patch(
        service_app,
        "execute_admission",
        tracer.wrap("service.execute", service_app.execute_admission),
    )
    shard_run = ShardPool.run

    async def carry_context(pool, index, fn, *args, **kwargs):
        # run_in_executor drops the context; run the shard's work inside
        # a copy of this one so its spans nest under service.shard.
        context = contextvars.copy_context()
        return await shard_run(
            pool, index, lambda: context.run(fn), *args, **kwargs
        )

    patch(ShardPool, "run", tracer.wrap_async("service.shard", carry_context))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
