"""The seeded chaos suite: injected failure drives the whole ladder.

Each test wires a :class:`ChaosController` into a real
:class:`ServiceApp` and asserts the ISSUE's core robustness claim: under
killed shards, slow units, corrupt cache entries, and skewed deadline
clocks the service returns **only correct verdicts or explicit 429/503
sheds — never a wrong or hung answer** — and every quality downgrade,
breaker transition, and respawn is visible in ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json

from repro.engine import unit_fingerprint
from repro.metrics.registry import MetricsRegistry
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.chaos import ChaosConfig, ChaosController

TASKS = [
    {"name": "video", "wcet_us": 2000, "period_us": 10000},
    {"name": "audio", "wcet_us": 1000, "period_us": 5000},
    {"name": "ctrl", "wcet_us": 4000, "period_us": 20000},
]
CAMPAIGN = {
    "n_cores": 2,
    "n_tasks": 4,
    "sets_per_point": 2,
    "utilizations": [0.5, 0.7],
    "algorithms": ["FFD"],
    "seed": 11,
}


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_app(tmp_path, name="svc", chaos=None, clock=None, **overrides):
    config = ServiceConfig(
        shards=overrides.pop("shards", 1),
        data_dir=str(tmp_path / name),
        **overrides,
    )
    return ServiceApp(
        config, metrics=MetricsRegistry(), clock=clock, chaos=chaos
    )


def body(tasks=TASKS, **extra):
    doc = {"tasks": tasks, "cores": 2, "algorithms": ["FFD", "WFD"]}
    doc.update(extra)
    return json.dumps(doc).encode()


async def admission(app, raw):
    status, headers, payload = await app.handle(
        "POST", "/v1/admission", raw
    )
    return status, headers, json.loads(payload)


async def metrics_text(app):
    _, _, payload = await app.handle("GET", "/metrics", b"")
    return payload.decode()


def reference_verdicts(tmp_path):
    """The undisturbed service's answer for ``TASKS`` (ground truth)."""

    async def run():
        app = make_app(tmp_path, name="reference")
        status, _, doc = await admission(app, body())
        assert status == 200
        await app.shutdown()
        return doc["verdicts"]

    return asyncio.run(run())


class TestKilledShards:
    def test_one_kill_degrades_to_cache_with_correct_verdicts(
        self, tmp_path
    ):
        truth = reference_verdicts(tmp_path)
        chaos = ChaosController(ChaosConfig(kill_first_n=1))

        async def run():
            # Same data dir as the reference run, so its cache is warm.
            app = make_app(tmp_path, name="reference", chaos=chaos)
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["degraded"] == "cache"
            assert doc["verdicts"] == truth  # degraded, never wrong
            assert chaos.injected == {"kill": 1}
            assert (
                app.metrics.value(
                    "svc_shard_respawns_total",
                    shard="shard0",
                    reason="killed",
                )
                == 1
            )
            assert (
                app.metrics.value(
                    "svc_degraded_total",
                    to="cache",
                    reason="shard-failure",
                )
                == 1  # it fell one rung
            )
            await app.shutdown()

        asyncio.run(run())

    def test_persistent_kills_trip_the_breaker_and_shed(self, tmp_path):
        chaos = ChaosController(ChaosConfig(kill_first_n=100))

        async def run():
            app = make_app(
                tmp_path,
                chaos=chaos,
                breaker_threshold=1,
                ladder_trip_threshold=100,  # isolate breaker behaviour
            )
            # The compute rung dies; the breaker opens; the cold cache
            # cannot answer; the request is shed explicitly.
            status, headers, doc = await admission(app, body())
            assert status == 503
            assert doc == {"error": "overloaded", "reason": "cache-miss"}
            assert int(headers["Retry-After"]) >= 1
            assert app.pool.state()[0]["state"] == "open"
            # While open, the next request is degraded straight to the
            # cache rung without touching the shard.
            kills_so_far = chaos.injected["kill"]
            status, _, _ = await admission(app, body())
            assert status == 503
            assert chaos.injected["kill"] == kills_so_far
            text = await metrics_text(app)
            assert (
                'svc_breaker_transitions_total{shard="shard0",'
                'to="open"} 1' in text
            )
            assert 'svc_breaker_open{shard="shard0"} 1' in text
            assert (
                'svc_degraded_total{reason="breaker",to="cache"} 1'
                in text
            )
            await app.shutdown()

        asyncio.run(run())

    def test_breaker_walks_open_half_open_closed(self, tmp_path):
        truth = reference_verdicts(tmp_path)
        chaos = ChaosController(ChaosConfig(kill_first_n=1))
        clock = FakeClock()

        async def run():
            app = make_app(
                tmp_path,
                chaos=chaos,
                clock=clock,
                breaker_threshold=1,
                breaker_reset_s=1.0,
                ladder_trip_threshold=100,
            )
            # One kill trips the breaker open on the scalar rung; the
            # cold cache cannot answer, so the request is shed.
            status, _, _ = await admission(app, body())
            assert status == 503
            breaker = app.pool.shards[0].breaker
            assert breaker.state == "open" and breaker.trips == 1
            # Before the backoff window: degraded to cache, still open.
            status, _, _ = await admission(app, body())
            assert status == 503
            assert breaker.state == "open"
            # Past the window: the single half-open probe goes through,
            # succeeds (chaos exhausted), and closes the breaker.
            clock.advance(breaker.backoff(1) + 0.01)
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["verdicts"] == truth
            assert breaker.state == "closed" and breaker.trips == 0
            text = await metrics_text(app)
            for transition in ("open", "half-open", "closed"):
                assert (
                    f'svc_breaker_transitions_total{{shard="shard0",'
                    f'to="{transition}"}} 1' in text
                )
            assert 'svc_breaker_open{shard="shard0"} 0' in text
            await app.shutdown()

        asyncio.run(run())


class TestSlowUnits:
    def test_deadline_exceeded_sheds_instead_of_hanging(self, tmp_path):
        truth = reference_verdicts(tmp_path)
        chaos = ChaosController(ChaosConfig(slow_first_n=1, slow_s=5.0))

        async def run():
            app = make_app(tmp_path, chaos=chaos)
            # 100 ms budget against a 5 s unit: the shard is abandoned
            # and respawned, the cold cache cannot answer, explicit 503.
            status, _, doc = await admission(
                app, body(deadline_ms=100)
            )
            assert status == 503
            assert doc["reason"] == "cache-miss"
            assert chaos.injected == {"slow": 1}
            assert (
                app.metrics.value(
                    "svc_shard_respawns_total",
                    shard="shard0",
                    reason="deadline",
                )
                == 1
            )
            assert (
                app.metrics.value(
                    "svc_degraded_total", to="cache", reason="deadline"
                )
                == 1
            )
            # The respawned shard serves the next request correctly.
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["verdicts"] == truth
            await app.shutdown()

        asyncio.run(run())


class TestCorruptCache:
    def test_corrupt_entry_is_quarantined_never_served(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            status, _, healthy = await admission(app, body())
            assert status == 200
            unit, _ = app._parse_admission(body())
            fingerprint = unit_fingerprint(unit)
            assert ChaosController.corrupt_cache_entry(
                app.cache, fingerprint
            )
            # Pin the ladder at the cache rung: the damaged entry must
            # be quarantined and reported as a miss, not returned.
            app.ladder.force("cache")
            status, _, doc = await admission(app, body())
            assert status == 503
            assert doc["reason"] == "cache-miss"
            quarantined = app.cache.path_for(fingerprint).with_name(
                app.cache.path_for(fingerprint).name + ".corrupt"
            )
            assert quarantined.is_file()
            # Climbing back to a compute rung refills the slot, and the
            # recomputed verdicts match the pre-corruption answer.
            app.ladder.force("scalar")
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["verdicts"] == healthy["verdicts"]
            app.ladder.force("cache")
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["verdicts"] == healthy["verdicts"]
            await app.shutdown()

        asyncio.run(run())


class TestClockSkew:
    def test_drifting_deadline_clock_degrades_to_cache(self, tmp_path):
        async def run():
            # Warm the cache with an undisturbed service on the same
            # data dir, then restart it with a deadline clock drifting
            # 10 s per reading — far past the 5 s default budget.
            warm = make_app(tmp_path, name="skewed")
            status, _, healthy = await admission(warm, body())
            assert status == 200
            await warm.shutdown()

            chaos = ChaosController(ChaosConfig(clock_skew_s=10.0))
            app = make_app(tmp_path, name="skewed", chaos=chaos)
            # Warm query: budgets expire before any compute rung runs,
            # but the cache still answers — degraded, not wrong.
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["degraded"] == "cache"
            assert doc["verdicts"] == healthy["verdicts"]
            # Cold query: nothing cached, explicit shed — never a hang.
            cold = body(
                tasks=[
                    {"name": "new", "wcet_us": 500, "period_us": 4000}
                ]
            )
            status, _, doc = await admission(app, cold)
            assert status == 503
            assert doc["reason"] == "cache-miss"
            assert (
                app.metrics.value(
                    "svc_degraded_total", to="cache", reason="deadline"
                )
                == 2
            )
            await app.shutdown()

        asyncio.run(run())


class TestFullLadderWalk:
    def test_scalar_cache_shed_in_one_request(self, tmp_path):
        truth = reference_verdicts(tmp_path)
        chaos = ChaosController(ChaosConfig(kill_first_n=1))
        clock = FakeClock()

        async def run():
            app = make_app(
                tmp_path, chaos=chaos, clock=clock, ladder_trip_threshold=1
            )
            # scalar rung: shard killed -> cache rung: cold miss -> shed.
            # One request, the whole ladder, and an explicit refusal at
            # the bottom.
            status, _, doc = await admission(app, body())
            assert status == 503
            assert doc == {"error": "overloaded", "reason": "cache-miss"}
            assert chaos.injected == {"kill": 1}
            text = await metrics_text(app)
            assert (
                'svc_degraded_total{reason="shard",to="cache"} 1'
                in text
            )
            assert (
                'svc_degraded_total{reason="shard-failure",to="cache"} 1'
                in text
            )
            assert 'svc_shed_total{reason="cache-miss"} 1' in text
            # The rung failure tripped the service-wide ladder down to
            # cache; a quiet recovery window climbs it back to scalar,
            # which (chaos exhausted) serves correct verdicts.
            assert app.ladder.mode == "cache"
            assert "svc_ladder_level 1" in text
            clock.advance(app.config.ladder_recovery_s)
            status, _, doc = await admission(app, body())
            assert status == 200
            assert doc["verdicts"] == truth
            assert "svc_ladder_level 0" in await metrics_text(app)
            await app.shutdown()

        asyncio.run(run())


class TestCampaignUnderChaos:
    def test_killed_shard_mid_campaign_retries_to_identical_result(
        self, tmp_path
    ):
        async def reference():
            app = make_app(tmp_path, name="ref")
            await app.startup()
            _, _, raw = await app.handle(
                "POST", "/v1/campaign", json.dumps(CAMPAIGN).encode()
            )
            job_id = json.loads(raw)["id"]
            result = await app.jobs.wait(job_id)
            await app.shutdown()
            return result

        truth = asyncio.run(reference())
        assert truth["state"] == "done"

        chaos = ChaosController(ChaosConfig(kill_first_n=1))

        async def chaotic():
            app = make_app(tmp_path, name="chaotic", chaos=chaos)
            await app.startup()
            _, _, raw = await app.handle(
                "POST", "/v1/campaign", json.dumps(CAMPAIGN).encode()
            )
            job_id = json.loads(raw)["id"]
            result = await app.jobs.wait(job_id)
            metrics = app.metrics
            await app.shutdown()
            return result, metrics

        result, metrics = asyncio.run(chaotic())
        assert result["state"] == "done"
        assert result["result"] == truth["result"]  # bit-identical
        assert chaos.injected == {"kill": 1}
        assert (
            metrics.value(
                "svc_shard_respawns_total",
                shard="shard0",
                reason="killed",
            )
            == 1
        )
        assert metrics.value("svc_jobs_total", event="done") == 1
