"""Schedulability-as-a-service: the resilient asyncio front end.

The ROADMAP's "millions of users" direction: a long-running HTTP
service (``repro serve``) wrapping the incremental analysis contexts,
the vectorized batch kernel, the content-addressed result cache, and
the experiment engine behind online admission control and campaign
jobs.  The load-bearing part is the resilience core:

* :mod:`repro.service.resilience` — token-bucket load shedding, a
  bounded admission queue, per-request deadline budgets, per-shard
  circuit breakers, and the explicit degradation ladder
  (scalar → cache-only → shed);
* :mod:`repro.service.shards` — the supervised worker-shard pool,
  routed by unit fingerprints;
* :mod:`repro.service.jobs` — journal-resumable campaign jobs (crash
  recovery across worker and service restarts);
* :mod:`repro.service.app` — the stdlib-asyncio HTTP layer
  (``/v1/admission``, ``/v1/campaign``, ``/v1/jobs/<id>``,
  ``/metrics``, ``/healthz``, ``/readyz``);
* :mod:`repro.service.chaos` — the seeded chaos harness the test suite
  drives the whole ladder with.

See ``docs/service.md`` for endpoints and tuning knobs.
"""

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.chaos import ChaosConfig, ChaosController, ShardKilled
from repro.service.jobs import JobManager, JobSpec
from repro.service.resilience import (
    MODES,
    BoundedQueue,
    CircuitBreaker,
    DeadlineBudget,
    DegradationLadder,
    TokenBucket,
)
from repro.service.shards import DeadlineExceeded, Shard, ShardPool

__all__ = [
    "MODES",
    "BoundedQueue",
    "ChaosConfig",
    "ChaosController",
    "CircuitBreaker",
    "DeadlineBudget",
    "DeadlineExceeded",
    "DegradationLadder",
    "JobManager",
    "JobSpec",
    "ServiceApp",
    "ServiceConfig",
    "Shard",
    "ShardKilled",
    "ShardPool",
    "TokenBucket",
]
