"""End-to-end tests of the service front end (``repro.service.app``).

``ServiceApp.handle()`` is a pure async function from (method, path,
body) to a response triple, so almost everything here runs without a
socket: verdict correctness (the service ≡ the library's own
``accept``, never via the batch kernel), input validation, rate/queue shedding with honest
``Retry-After``, the campaign job lifecycle, and the journal-backed
restart-resume bit-identity guarantee.  One test boots the real
asyncio socket server on an ephemeral port and speaks actual HTTP/1.1.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil

import pytest

from repro.experiments.algorithms import accept
from repro.metrics.registry import MetricsRegistry
from repro.model.generator import TaskSetGenerator
from repro.model.io import taskset_from_dict, taskset_to_dict
from repro.overhead.model import OverheadModel
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.jobs import JobSpec

TASKS = [
    {"name": "video", "wcet_us": 2000, "period_us": 10000},
    {"name": "audio", "wcet_us": 1000, "period_us": 5000},
    {"name": "ctrl", "wcet_us": 4000, "period_us": 20000},
]
HEAVY_TASKS = [
    {"name": f"hog{i}", "wcet_us": 9000, "period_us": 10000}
    for i in range(4)
]
CAMPAIGN = {
    "n_cores": 2,
    "n_tasks": 4,
    "sets_per_point": 2,
    "utilizations": [0.5, 0.7],
    "algorithms": ["FFD"],
    "seed": 11,
}


def make_app(tmp_path, name="svc", **overrides) -> ServiceApp:
    config = ServiceConfig(
        shards=overrides.pop("shards", 1),
        data_dir=str(tmp_path / name),
        **overrides,
    )
    return ServiceApp(config, metrics=MetricsRegistry())


async def call(app, method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    status, headers, raw = await app.handle(method, path, body)
    doc = json.loads(raw) if raw and raw.strip().startswith(b"{") else None
    return status, headers, doc


def admission_body(tasks=TASKS, **extra):
    body = {"tasks": tasks, "cores": 2, "algorithms": ["FFD", "WFD"]}
    body.update(extra)
    return body


class TestAdmission:
    def test_verdicts_match_the_library(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            status, _, doc = await call(
                app, "POST", "/v1/admission", admission_body()
            )
            assert status == 200
            taskset = taskset_from_dict(
                {"tasks": TASKS}
            ).assign_rate_monotonic()
            for name in ("FFD", "WFD"):
                assert doc["verdicts"][name] == accept(name, taskset, 2)
            assert doc["admitted"] == sorted(
                n for n, ok in doc["verdicts"].items() if ok
            )
            assert "degraded" not in doc
            assert (
                app.metrics.sum_of("svc_admission_verdicts_total") == 2
            )
            await app.shutdown()

        asyncio.run(run())

    def test_seeded_paper_stream_matches_the_library(self, tmp_path):
        generator = TaskSetGenerator(n_tasks=12, seed=5)
        spread = random.Random(5)
        algorithms = ["FP-TS", "FFD", "WFD"]
        model = OverheadModel.paper_core_i7(3)
        seen = set()

        async def run():
            app = make_app(tmp_path)
            for _ in range(12):
                taskset = generator.generate(
                    (0.6 + 0.4 * spread.random()) * 4
                )
                tasks = taskset_to_dict(taskset)["tasks"]
                status, _, doc = await call(
                    app,
                    "POST",
                    "/v1/admission",
                    admission_body(
                        tasks=tasks,
                        cores=4,
                        algorithms=algorithms,
                        overheads="paper",
                    ),
                )
                assert status == 200
                assert "degraded" not in doc
                served = taskset_from_dict(
                    {"tasks": tasks}
                ).assign_rate_monotonic()
                for name in algorithms:
                    expected = accept(name, served, 4, model)
                    assert doc["verdicts"][name] == expected
                    seen.add(expected)
            await app.shutdown()

        asyncio.run(run())
        assert seen == {True, False}  # the stream exercises both verdicts

    def test_admission_never_calls_the_batch_kernel(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import algorithms

        taskset = taskset_from_dict({"tasks": TASKS}).assign_rate_monotonic()
        names = ["FP-TS", "FFD", "WFD", "P-EDF"]
        truth = {name: accept(name, taskset, 2) for name in names}

        def refuse(*args, **kwargs):
            raise AssertionError("admission reached the batch kernel")

        monkeypatch.setattr(
            algorithms, "batch_partition_accept_multi", refuse
        )

        async def run():
            app = make_app(tmp_path)
            status, _, doc = await call(
                app, "POST", "/v1/admission", admission_body(algorithms=names)
            )
            assert status == 200
            assert doc["verdicts"] == truth
            assert "degraded" not in doc
            await app.shutdown()

        asyncio.run(run())

    def test_overloaded_set_is_rejected_not_erred(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            status, _, doc = await call(
                app,
                "POST",
                "/v1/admission",
                admission_body(tasks=HEAVY_TASKS),
            )
            assert status == 200
            assert doc["admitted"] == []
            await app.shutdown()

        asyncio.run(run())

    @pytest.mark.parametrize(
        "body, fragment",
        [
            (b"{nope", "not valid JSON"),
            (b"[]", "'tasks'"),
            (json.dumps({"tasks": []}).encode(), "non-empty"),
            (
                json.dumps(admission_body(algorithms=["HYPE"])).encode(),
                "unknown algorithm",
            ),
            (
                json.dumps(admission_body(cores=0)).encode(),
                "'cores'",
            ),
            (
                json.dumps(admission_body(deadline_ms=0)).encode(),
                "'deadline_ms'",
            ),
            (
                json.dumps(
                    admission_body(overheads="paper*banana")
                ).encode(),
                "overhead",
            ),
        ],
    )
    def test_bad_requests_get_400(self, tmp_path, body, fragment):
        async def run():
            app = make_app(tmp_path)
            status, _, raw = await app.handle(
                "POST", "/v1/admission", body
            )
            assert status == 400
            assert fragment in json.loads(raw)["error"]
            await app.shutdown()

        asyncio.run(run())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_ms", float("nan")),
            ("deadline_ms", float("inf")),
            ("cores", 2.9),
            ("cores", True),
            ("cores", 1025),
        ],
        ids=[
            "deadline-nan",
            "deadline-inf",
            "cores-fraction",
            "cores-bool",
            "cores-above-max",
        ],
    )
    def test_non_finite_deadline_and_non_integral_cores_get_400(
        self, tmp_path, field, value
    ):
        async def run():
            app = make_app(tmp_path)
            status, _, raw = await app.handle(
                "POST",
                "/v1/admission",
                json.dumps(admission_body(**{field: value})).encode(),
            )
            assert status == 400
            assert f"'{field}'" in json.loads(raw)["error"]
            assert app.metrics.sum_of("svc_degraded_total") == 0
            await app.shutdown()

        asyncio.run(run())

    def test_unknown_route_is_404(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            status, _, _ = await app.handle("GET", "/v2/nope", b"")
            assert status == 404
            await app.shutdown()

        asyncio.run(run())


class TestShedding:
    def test_rate_shed_is_429_with_retry_after(self, tmp_path):
        async def run():
            app = make_app(tmp_path, rate=0.001, burst=1)
            first, _, _ = await call(
                app, "POST", "/v1/admission", admission_body()
            )
            assert first == 200
            status, headers, doc = await call(
                app, "POST", "/v1/admission", admission_body()
            )
            assert status == 429
            assert doc == {"error": "overloaded", "reason": "rate"}
            assert int(headers["Retry-After"]) >= 1
            assert (
                app.metrics.value("svc_shed_total", reason="rate") == 1
            )
            await app.shutdown()

        asyncio.run(run())

    def test_queue_shed_is_429(self, tmp_path):
        async def run():
            app = make_app(tmp_path, queue_limit=0)
            status, headers, doc = await call(
                app, "POST", "/v1/admission", admission_body()
            )
            assert status == 429
            assert doc["reason"] == "queue"
            assert "Retry-After" in headers
            assert app.queue.depth == 0  # slot released even on shed
            await app.shutdown()

        asyncio.run(run())


class TestHealthAndMetrics:
    def test_healthz_readyz_lifecycle(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            status, _, _ = await app.handle("GET", "/healthz", b"")
            assert status == 200
            status, _, _ = await app.handle("GET", "/readyz", b"")
            assert status == 503  # startup() not called yet
            await app.startup()
            status, _, doc = await call(app, "GET", "/readyz")
            assert status == 200
            assert doc["shards"][0]["state"] == "closed"
            await app.shutdown()

        asyncio.run(run())

    def test_metrics_exposition(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            await call(app, "POST", "/v1/admission", admission_body())
            status, headers, raw = await app.handle(
                "GET", "/metrics", b""
            )
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            text = raw.decode()
            assert "# TYPE svc_requests_total counter" in text
            assert (
                'svc_requests_total{endpoint="POST /v1/admission",'
                'status="200"} 1' in text
            )
            assert "svc_ladder_level 0" in text
            await app.shutdown()

        asyncio.run(run())


class TestCampaignJobs:
    def test_lifecycle_and_idempotency(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            await app.startup()
            status, _, doc = await call(
                app, "POST", "/v1/campaign", CAMPAIGN
            )
            assert status == 202
            job_id = doc["id"]
            assert doc["href"] == f"/v1/jobs/{job_id}"
            result = await app.jobs.wait(job_id)
            assert result["state"] == "done"
            assert result["result"]["utilizations"] == [0.5, 0.7]
            assert len(result["result"]["ratios"]["FFD"]) == 2
            status, _, doc = await call(
                app, "GET", f"/v1/jobs/{job_id}"
            )
            assert status == 200 and doc["state"] == "done"
            # Same spec again: answered from the persisted result.
            status, _, doc = await call(
                app, "POST", "/v1/campaign", CAMPAIGN
            )
            assert status == 200 and doc["state"] == "done"
            status, _, _ = await call(app, "GET", "/v1/jobs/feedbeef")
            assert status == 404
            await app.shutdown()

        asyncio.run(run())

    def test_bad_spec_is_400(self, tmp_path):
        async def run():
            app = make_app(tmp_path)
            await app.startup()
            status, _, doc = await call(
                app, "POST", "/v1/campaign", {"algorithms": ["HYPE"]}
            )
            assert status == 400
            assert "unknown algorithm" in doc["error"]
            status, _, doc = await call(
                app, "POST", "/v1/campaign", {"sets_per_point": 0}
            )
            assert status == 400
            await app.shutdown()

        asyncio.run(run())

    def test_restart_resume_is_bit_identical(self, tmp_path):
        """A service killed mid-campaign resumes from the journal after
        restart and produces the uninterrupted run's exact result."""

        spec = JobSpec.from_dict(CAMPAIGN)
        job_id = spec.job_id()

        async def uninterrupted():
            app = make_app(tmp_path, name="ref", shards=2)
            await app.startup()
            await call(app, "POST", "/v1/campaign", CAMPAIGN)
            result = await app.jobs.wait(job_id)
            await app.shutdown()
            return result

        reference = asyncio.run(uninterrupted())
        assert reference["state"] == "done"

        # Simulate the crash: the restarted data dir holds the job spec
        # and one shard's journal (work finished before the kill), but
        # no result file.
        ref_jobs = tmp_path / "ref" / "jobs"
        crashed_jobs = tmp_path / "crashed" / "jobs"
        crashed_jobs.mkdir(parents=True)
        shutil.copy(
            ref_jobs / f"{job_id}.spec.json",
            crashed_jobs / f"{job_id}.spec.json",
        )
        journals = sorted(ref_jobs.glob(f"{job_id}.shard*.jsonl"))
        assert journals  # the reference run journaled its units
        shutil.copy(journals[0], crashed_jobs / journals[0].name)

        async def restarted():
            app = make_app(tmp_path, name="crashed", shards=2)
            resumed = await app.startup()
            assert resumed == [job_id]
            result = await app.jobs.wait(job_id)
            metrics = app.metrics
            await app.shutdown()
            return result, metrics

        result, metrics = asyncio.run(restarted())
        assert result["state"] == "done"
        assert result["result"] == reference["result"]
        assert result["spec"] == reference["spec"]
        assert (
            metrics.value("svc_jobs_total", event="resumed") == 1
        )
        # The copied journal's units were replayed, not recomputed.
        replayed = sum(
            shard["journal_hits"] for shard in result["shards"].values()
        )
        assert replayed > 0

        asyncio.run(uninterrupted())  # ref dir still consistent


class TestSocketLayer:
    def test_real_http_over_a_socket(self, tmp_path):
        async def run():
            app = make_app(tmp_path, port=0)
            server = await app.serve()
            host, port = server.sockets[0].getsockname()[:2]

            async def request(raw: bytes) -> bytes:
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                writer.write(raw)
                await writer.drain()
                response = await reader.read()
                writer.close()
                await writer.wait_closed()
                return response

            response = await request(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b'{"status": "ok"}' in response

            body = json.dumps(admission_body()).encode()
            head = (
                f"POST /v1/admission HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            response = await request(head + body)
            assert b"HTTP/1.1 200 OK" in response
            assert b'"admitted"' in response

            # An absurd Content-Length is refused before reading.
            response = await request(
                b"POST /v1/admission HTTP/1.1\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
            assert b"413" in response.split(b"\r\n", 1)[0]

            await app.shutdown()

        asyncio.run(run())
