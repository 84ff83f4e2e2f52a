"""`repro serve`: the schedulability-as-a-service asyncio front end.

A stdlib-only HTTP/1.1 service (no frameworks — ``asyncio.start_server``
plus a small parser) that wraps the analysis stack for online use:

* ``POST /v1/admission`` — one task set, one verdict per algorithm:
  *admit this workload to this platform?*  Served through the
  degradation ladder under a per-request deadline budget.
* ``POST /v1/campaign`` — a whole acceptance campaign; returns a job id
  immediately.  ``GET /v1/jobs/<id>`` polls it.  Jobs survive worker
  crashes and service restarts (see :mod:`repro.service.jobs`).
* ``GET /metrics`` — Prometheus exposition of the shared registry
  (service counters plus the engines' ``engine_*`` and analysis
  ``ana_*`` families).
* ``GET /healthz`` / ``GET /readyz`` — liveness and readiness.

Every response is explicit about what it is: a ``200`` carries a real
verdict (possibly with ``"degraded"`` naming the rung that produced
it), a ``429``/``503`` carries a truthful ``Retry-After``.  There is no
path that returns a wrong or hung answer: compute rungs that fail step
down the ladder, the cache rung answers only byte-validated entries,
and the final rung sheds.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.engine import AdmissionUnit, ResultCache, unit_fingerprint
from repro.engine.units import admission_taskset, execute_admission
from repro.metrics.registry import MetricsRegistry
from repro.service.chaos import ChaosController
from repro.service.jobs import JobManager, JobSpec, overhead_model_from_spec
from repro.service.resilience import (
    MODES,
    BoundedQueue,
    DeadlineBudget,
    DegradationLadder,
    TokenBucket,
    mode_index,
)
from repro.service.shards import DeadlineExceeded, ShardPool

#: Largest accepted request body; admission task sets and campaign specs
#: are small, so anything bigger is a client bug or an attack.
MAX_BODY_BYTES = 1 << 20
#: Largest accepted admission ``cores``; the partitioners keep per-core
#: state, so an unbounded count lets one request exhaust the service.
MAX_CORES = 1024

Response = Tuple[int, Dict[str, str], bytes]


@dataclass
class ServiceConfig:
    """Tuning knobs of one service instance (see docs/service.md)."""

    host: str = "127.0.0.1"
    port: int = 8337
    shards: int = 2
    queue_limit: int = 64
    rate: float = 0.0  # requests/second admitted; <= 0 disables
    burst: int = 8
    deadline_s: float = 5.0  # default per-request budget
    unit_timeout: Optional[float] = None  # campaign per-unit budget
    retries: int = 1
    data_dir: str = ".repro-service"
    cache_dir: Optional[str] = None  # default: <data_dir>/cache
    seed: int = 0
    breaker_threshold: int = 3
    breaker_reset_s: float = 1.0
    ladder_trip_threshold: int = 2
    ladder_recovery_s: float = 5.0


class ServiceApp:
    """The service: routing, the resilience core, and the HTTP glue.

    ``handle()`` is a pure async function from (method, path, body) to a
    response triple, so the whole behaviour — ladder walks, shedding,
    breaker trips — is testable without opening a socket; ``serve()``
    is a thin asyncio adapter over it.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=None,
        chaos: Optional[ChaosController] = None,
    ) -> None:
        import time

        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock if clock is not None else time.monotonic
        self.chaos = chaos
        # Deadline budgets use the (possibly chaos-skewed) clock; the
        # breakers/bucket keep the true one, mirroring a host whose
        # processes disagree about time.
        self.deadline_clock = (
            chaos.skew_clock(self.clock) if chaos is not None else self.clock
        )
        self.data_dir = Path(self.config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        cache_dir = (
            Path(self.config.cache_dir)
            if self.config.cache_dir is not None
            else self.data_dir / "cache"
        )
        self.cache = ResultCache(cache_dir)
        self.bucket = TokenBucket(
            self.config.rate, self.config.burst, clock=self.clock
        )
        self.queue = BoundedQueue(self.config.queue_limit)
        self.ladder = DegradationLadder(
            metrics=self.metrics,
            clock=self.clock,
            trip_threshold=self.config.ladder_trip_threshold,
            recovery_s=self.config.ladder_recovery_s,
        )
        self.pool = ShardPool(
            n_shards=self.config.shards,
            metrics=self.metrics,
            clock=self.clock,
            seed=self.config.seed,
            chaos=chaos,
            failure_threshold=self.config.breaker_threshold,
            reset_timeout=self.config.breaker_reset_s,
        )
        self.jobs = JobManager(
            self.data_dir,
            self.pool,
            metrics=self.metrics,
            unit_timeout=self.config.unit_timeout,
            retries=self.config.retries,
        )
        self._started = False
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def startup(self) -> list:
        """Resume interrupted campaign jobs; idempotent."""
        if self._started:
            return []
        self._started = True
        return self.jobs.resume_pending()

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.close()

    # ------------------------------------------------------------------
    # Response helpers
    # ------------------------------------------------------------------

    def _json(
        self,
        status: int,
        payload: dict,
        retry_after: Optional[float] = None,
    ) -> Response:
        headers = {"Content-Type": "application/json"}
        if retry_after is not None:
            # Ceil to a whole second; 0 invites an instant retry storm.
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return status, headers, body

    def _shed(self, status: int, reason: str, retry_after: float) -> Response:
        self.metrics.counter("svc_shed_total", reason=reason).inc()
        return self._json(
            status,
            {"error": "overloaded", "reason": reason},
            retry_after=retry_after,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def handle(self, method: str, path: str, body: bytes) -> Response:
        try:
            response = await self._route(method, path, body)
        except Exception as exc:  # last-resort: a 500, never a hang
            response = self._json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        self.metrics.counter(
            "svc_requests_total",
            endpoint=self._endpoint_label(method, path),
            status=str(response[0]),
        ).inc()
        return response

    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        if path.startswith("/v1/jobs/"):
            path = "/v1/jobs"
        return f"{method} {path}"

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if method == "GET" and path == "/healthz":
            return self._json(200, {"status": "ok"})
        if method == "GET" and path == "/readyz":
            if self._started and self.pool.any_closed():
                return self._json(
                    200, {"status": "ready", "shards": self.pool.state()}
                )
            return self._json(
                503,
                {"status": "not ready", "shards": self.pool.state()},
                retry_after=1.0,
            )
        if method == "GET" and path == "/metrics":
            return (
                200,
                {"Content-Type": "text/plain; version=0.0.4"},
                self.metrics.to_prometheus().encode(),
            )
        if method == "POST" and path == "/v1/admission":
            return await self._admission(body)
        if method == "POST" and path == "/v1/campaign":
            return await self._campaign(body)
        if method == "GET" and path.startswith("/v1/jobs/"):
            return self._job_status(path[len("/v1/jobs/"):])
        return self._json(404, {"error": f"no route {method} {path}"})

    # ------------------------------------------------------------------
    # Admission: the degradation-ladder walk
    # ------------------------------------------------------------------

    def _parse_admission(self, body: bytes):
        """Body → (AdmissionUnit, deadline_s); ValueError = 400."""
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ValueError("body is not valid JSON") from None
        if not isinstance(data, dict) or "tasks" not in data:
            raise ValueError("body must be an object with a 'tasks' list")
        from repro.experiments.algorithms import ALGORITHMS
        from repro.model.io import taskset_from_dict

        taskset = taskset_from_dict({"tasks": data["tasks"]})
        if len(taskset) == 0:
            raise ValueError("'tasks' must be non-empty")
        n_cores = data.get("cores", 4)
        if isinstance(n_cores, float) and n_cores.is_integer():
            n_cores = int(n_cores)
        if isinstance(n_cores, bool) or not isinstance(n_cores, int):
            raise ValueError(f"'cores' must be an integer, got {n_cores!r}")
        if not 1 <= n_cores <= MAX_CORES:
            raise ValueError(f"'cores' must be between 1 and {MAX_CORES}")
        algorithms = tuple(data.get("algorithms", ("FP-TS", "FFD", "WFD")))
        for name in algorithms:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {name!r}; choose from "
                    f"{sorted(ALGORITHMS)}"
                )
        model = overhead_model_from_spec(
            str(data.get("overheads", "zero")),
            max(1, len(taskset) // n_cores),
        )
        try:
            deadline_s = float(
                data.get("deadline_ms", self.config.deadline_s * 1000)
            ) / 1000.0
        except (TypeError, ValueError, OverflowError):
            deadline_s = math.nan
        if not math.isfinite(deadline_s) or deadline_s <= 0:
            raise ValueError("'deadline_ms' must be positive and finite")
        unit = AdmissionUnit(
            tasks=tuple(
                (task.name, task.wcet, task.period, task.deadline, task.wss)
                for task in taskset
            ),
            n_cores=n_cores,
            algorithms=algorithms,
            overheads=model,
        )
        admission_taskset(unit)  # validates task parameters (ValueError)
        return unit, deadline_s

    async def _admission(self, body: bytes) -> Response:
        # Shed before spending any work: rate first, then queue bound.
        if not self.bucket.try_acquire():
            return self._shed(429, "rate", self.bucket.retry_after())
        if not self.queue.try_enter():
            return self._shed(429, "queue", 1.0)
        try:
            try:
                unit, deadline_s = self._parse_admission(body)
            except ValueError as exc:
                return self._json(400, {"error": str(exc)})
            budget = DeadlineBudget(deadline_s, clock=self.deadline_clock)
            return await self._admission_ladder(unit, budget)
        finally:
            self.queue.leave()

    async def _admission_ladder(
        self, unit: AdmissionUnit, budget: DeadlineBudget
    ) -> Response:
        """Walk the ladder from its current rung until a rung answers."""
        fingerprint = unit_fingerprint(unit)
        shard_index = self.pool.route(fingerprint)
        cache_level = mode_index("cache")
        # A quiet ladder climbs back before the request picks its rung.
        self.ladder.recover()
        level = entry_level = mode_index(self.ladder.mode)
        # An open breaker on the routed shard degrades this request to
        # the cache rung without consuming the ladder's global state.
        if level < cache_level and not self.pool.allow(shard_index):
            level = cache_level
            self.ladder.count_downgrade("cache", "breaker")

        while True:
            mode = MODES[level]
            if mode == "shed":
                return self._shed(503, "ladder", 1.0)
            if mode == "cache":
                payload = self.cache.load(fingerprint)
                if payload is not None and "verdicts" in payload:
                    self.metrics.counter("svc_cache_answers_total").inc()
                    degraded = "cache" if entry_level < level else None
                    return self._verdict_response(unit, payload, degraded)
                retry_after = max(1.0, self.pool.retry_after(shard_index))
                return self._shed(503, "cache-miss", retry_after)
            if budget.expired():
                # No time left to compute; drop to the cache rung.
                self.ladder.count_downgrade("cache", "deadline")
                level = cache_level
                continue
            # The compute rung: scalar analysis on the routed shard.
            try:
                payload = await self.pool.run(
                    shard_index,
                    lambda: execute_admission(unit),
                    timeout=budget.sub_timeout(),
                    kind="admission:scalar",
                )
            except DeadlineExceeded:
                self.ladder.report_failure("deadline")
                self.ladder.count_downgrade("cache", "deadline")
                level = cache_level
                continue
            except Exception:
                # ShardKilled or a genuine analysis crash: breaker has
                # been fed by the pool; step one rung down.
                self.ladder.report_failure("shard")
                level += 1
                self.ladder.count_downgrade(MODES[level], "shard-failure")
                continue
            self.cache.store(fingerprint, payload)
            return self._verdict_response(unit, payload)

    def _verdict_response(
        self,
        unit: AdmissionUnit,
        payload: dict,
        degraded: Optional[str] = None,
    ) -> Response:
        verdicts = payload["verdicts"]
        for name, admitted in verdicts.items():
            self.metrics.counter(
                "svc_admission_verdicts_total",
                verdict="admit" if admitted else "reject",
            ).inc()
        doc = {
            "verdicts": verdicts,
            "admitted": sorted(
                name for name, ok in verdicts.items() if ok
            ),
            "cores": unit.n_cores,
        }
        if degraded is not None:
            doc["degraded"] = degraded
        return self._json(200, doc)

    # ------------------------------------------------------------------
    # Campaign jobs
    # ------------------------------------------------------------------

    async def _campaign(self, body: bytes) -> Response:
        if not self.bucket.try_acquire():
            return self._shed(429, "rate", self.bucket.retry_after())
        try:
            data = json.loads(body.decode("utf-8"))
            spec = JobSpec.from_dict(data)
        except (ValueError, UnicodeDecodeError) as exc:
            return self._json(400, {"error": str(exc)})
        job_id, state = self.jobs.submit(spec)
        return self._json(
            202 if state == "running" else 200,
            {"id": job_id, "state": state, "href": f"/v1/jobs/{job_id}"},
        )

    def _job_status(self, job_id: str) -> Response:
        status = self.jobs.status(job_id)
        if status is None:
            return self._json(404, {"error": f"unknown job {job_id!r}"})
        return self._json(200, status)

    # ------------------------------------------------------------------
    # The socket layer
    # ------------------------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        try:
            try:
                method, path, length = await asyncio.wait_for(
                    _read_head(reader), timeout=10.0
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, ConnectionError):
                return
            if length > MAX_BODY_BYTES:
                status, headers, body = self._json(
                    413, {"error": "body too large"}
                )
            else:
                payload = (
                    await reader.readexactly(length) if length else b""
                )
                status, headers, body = await self.handle(
                    method, path, payload
                )
            writer.write(_render_response(status, headers, body))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve(self) -> asyncio.AbstractServer:
        """Bind the socket, resume jobs, and return the server object."""
        await self.startup()
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port
        )
        return self._server

    async def serve_forever(self, log=print) -> None:
        server = await self.serve()
        sockets = server.sockets or ()
        for sock in sockets:
            host, port = sock.getsockname()[:2]
            log(f"repro serve: listening on http://{host}:{port} "
                f"({self.config.shards} shard(s), "
                f"queue={self.config.queue_limit}, "
                f"rate={self.config.rate:g}/s)")
        async with server:
            await server.serve_forever()


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _read_head(reader) -> Tuple[str, str, int]:
    """Parse the request line + headers; returns (method, path, length)."""
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise ValueError("empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {request_line!r}")
    method, target, _version = parts
    length = 0
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        if ":" in line:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ValueError("bad Content-Length") from None
    path = target.split("?", 1)[0]
    return method.upper(), path, length


def _render_response(
    status: int, headers: Dict[str, str], body: bytes
) -> bytes:
    text = _STATUS_TEXT.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {text}"]
    out = dict(headers)
    out.setdefault("Content-Type", "application/json")
    out["Content-Length"] = str(len(body))
    out["Connection"] = "close"
    for name, value in out.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
