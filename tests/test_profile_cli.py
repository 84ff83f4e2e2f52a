"""The ``repro profile`` CLI: exit codes, report schemas, and the
zero-cost-when-disabled contract.

The last family extends the ``test_empty_plan_identity`` pattern to the
metrics layer: attaching *no* registry, a **disabled** registry, an
**enabled** registry, or ``profile=True`` to :class:`KernelSim` must all
produce bit-identical :class:`SimulationResult` canonical forms under
every overrun policy and every scheduling class — observation never
perturbs the observed schedule.  Unobserved runs keep a lean ready
queue and no sleep queue, observed ones the modelled binomial heap and
red-black tree, so the same family pins the two queue paths to one
schedule.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.algorithms import build_assignment
from repro.faults.plan import OVERRUN_POLICIES, FaultPlan, TaskFaults
from repro.kernel.sched_class import SCHED_CLASSES
from repro.kernel.sim import KernelSim
from repro.metrics import PROFILE_SCHEMA_VERSION, MetricsRegistry
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.structures.binomial_heap import BinomialHeap
from repro.structures.rbtree import RedBlackTree
from repro.verify import result_to_canonical


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(
        json.dumps(
            {
                "tasks": [
                    {"name": "a", "wcet_us": 2000, "period_us": 10000},
                    {"name": "b", "wcet_us": 6000, "period_us": 20000},
                    {"name": "c", "wcet_us": 5000, "period_us": 25000},
                    {"name": "d", "wcet_us": 9000, "period_us": 50000},
                ]
            }
        ),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def overloaded_file(tmp_path):
    """Total utilization 3.0 on 2 cores: every algorithm rejects it."""
    path = tmp_path / "overloaded.json"
    path.write_text(
        json.dumps(
            {
                "tasks": [
                    {"name": f"x{i}", "wcet_us": 10000, "period_us": 10000}
                    for i in range(3)
                ]
            }
        ),
        encoding="utf-8",
    )
    return path


class TestSingleScenario:
    def test_json_report_schema(self, workload_file, capsys):
        code = main(
            [
                "profile",
                "--tasks", str(workload_file),
                "--cores", "2",
                "--duration-ms", "100",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == PROFILE_SCHEMA_VERSION
        assert set(report) == {
            "schema",
            "environment",
            "scenario",
            "summary",
            "metrics",
            "derived",
        }
        assert report["scenario"]["mode"] == "single"
        assert report["summary"]["releases"] > 0
        names = {entry["name"] for entry in report["metrics"]["metrics"]}
        assert "sim_releases_total" in names
        assert "wall_queue_op_ns" in names
        anatomy = report["derived"]["primitives"]
        assert "rls" in anatomy and "sch" in anatomy
        assert all(
            slot["count"] > 0 and slot["sim_ns"] >= 0
            for slot in anatomy.values()
        )
        curves = report["derived"]["queue_ops"]
        assert set(curves) == {"ready", "sleep"}
        assert curves["ready"], "ready-queue curve must have N points"

    def test_prom_exposition(self, workload_file, capsys):
        code = main(
            [
                "profile",
                "--tasks", str(workload_file),
                "--cores", "2",
                "--duration-ms", "100",
                "--format", "prom",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE sim_releases_total counter" in out
        assert "# TYPE wall_queue_op_ns histogram" in out
        assert 'wall_queue_op_ns_bucket{' in out
        for line in out.splitlines():
            assert line.startswith("#") or len(line.split()) == 2

    def test_out_file(self, workload_file, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "profile",
                "--tasks", str(workload_file),
                "--cores", "2",
                "--duration-ms", "100",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert report["schema"] == PROFILE_SCHEMA_VERSION
        assert str(out_file) in capsys.readouterr().out

    def test_unschedulable_exits_one(self, overloaded_file, capsys):
        code = main(
            [
                "profile",
                "--tasks", str(overloaded_file),
                "--cores", "2",
                "--duration-ms", "100",
            ]
        )
        assert code == 1
        assert "reject" in capsys.readouterr().err.lower()

    def test_fault_plan_is_profiled(self, workload_file, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "tasks": {
                        "b": {
                            "overrun_factor": 1.5,
                            "overrun_probability": 1.0,
                        }
                    }
                }
            ),
            encoding="utf-8",
        )
        code = main(
            [
                "profile",
                "--tasks", str(workload_file),
                "--cores", "2",
                "--duration-ms", "100",
                "--faults", str(plan),
                "--overrun-policy", "demote",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["faults"] == str(plan)
        assert report["scenario"]["overrun_policy"] == "demote"


class TestSweep:
    def test_sweep_json_report(self, capsys):
        code = main(
            [
                "profile",
                "--sets", "3",
                "--n-tasks", "5",
                "--cores", "2",
                "--duration-ms", "50",
                "--jobs", "1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["mode"] == "sweep"
        assert report["scenario"]["sets"] == 3
        assert (
            report["summary"]["profiled_sets"]
            + report["summary"]["rejected_sets"]
            == 3
        )
        assert report["summary"]["profiled_sets"] > 0

    def test_sweep_is_deterministic(self, capsys):
        argv = [
            "profile",
            "--sets", "2",
            "--n-tasks", "5",
            "--cores", "2",
            "--duration-ms", "50",
            "--jobs", "1",
            "--seed", "9",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        sim = lambda report: [  # noqa: E731
            entry
            for entry in report["metrics"]["metrics"]
            if entry["name"].startswith("sim_")
        ]
        assert sim(first) == sim(second)
        assert first["summary"] == second["summary"]

    def test_rejecting_every_set_exits_one(self, capsys):
        code = main(
            [
                "profile",
                "--sets", "2",
                "--n-tasks", "3",
                "--cores", "1",
                "--utilization", "1.0",
                "--duration-ms", "50",
                "--jobs", "1",
            ]
        )
        captured = capsys.readouterr()
        if code == 0:
            pytest.skip("generator produced a schedulable set at U=1.0")
        assert code == 1
        assert "reject" in captured.err.lower()


def _run_instrumented(
    metrics, overrun_policy, sched_class=None, fair=False, profile=False
):
    taskset = TaskSet(
        [
            Task("a", wcet=2 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=20 * MS),
            Task("c", wcet=5 * MS, period=25 * MS),
            Task("d", wcet=9 * MS, period=50 * MS),
        ]
    ).assign_rate_monotonic()
    assignment = build_assignment("FP-TS", taskset, 2, OverheadModel.zero())
    assert assignment is not None
    plan = FaultPlan(
        tasks={"c": TaskFaults(overrun_factor=1.4, overrun_probability=0.5)},
        seed=2,
    )
    fair_tasks = (
        [
            Task("bg0", wcet=2 * MS, period=30 * MS),
            Task("bg1", wcet=3 * MS, period=50 * MS),
        ]
        if fair
        else None
    )
    return KernelSim(
        assignment,
        OverheadModel.paper_core_i7(2),
        duration=200 * MS,
        record_trace=True,
        sporadic_jitter=MS,
        execution_variation=0.3,
        seed=7,
        faults=plan,
        overrun_policy=overrun_policy,
        metrics=metrics,
        sched_class=sched_class,
        fair_tasks=fair_tasks,
        profile=profile,
    ).run()


def _observation_cases():
    """(sched_class, fair, overrun_policy) cells: the policy-derived
    default class (ids are the bare policy names), every registered
    class, and the default class with fair tasks beside it."""
    cases = []
    for policy in sorted(OVERRUN_POLICIES):
        cases.append(pytest.param(None, False, policy, id=policy))
        for name in sorted(SCHED_CLASSES):
            cases.append(
                pytest.param(name, False, policy, id=f"{name}-{policy}")
            )
        cases.append(
            pytest.param(None, True, policy, id=f"fair-tasks-{policy}")
        )
    return cases


@pytest.mark.parametrize("sched_class,fair,overrun_policy", _observation_cases())
def test_observation_does_not_perturb_schedule(sched_class, fair, overrun_policy):
    """metrics=None, disabled registry, enabled registry, profile=True:
    one schedule.  The unobserved runs keep only the ready queue's
    order (a lean heap, no sleep queue); the observed ones run the
    modelled binomial heap and red-black tree.  The canonical form
    holds the whole segment trace and event log."""

    def run(metrics, profile=False):
        return result_to_canonical(
            _run_instrumented(
                metrics, overrun_policy, sched_class, fair, profile
            )
        )

    baseline = run(None)
    assert baseline["trace"] and baseline["events"]
    assert baseline == run(MetricsRegistry(enabled=False))
    assert baseline == run(MetricsRegistry())
    assert baseline == run(None, profile=True)


def test_unobserved_run_builds_no_modelled_queues(monkeypatch):
    """A run with no registry and no profiling inserts into neither the
    binomial heap nor the red-black tree; an observed run uses both."""
    calls = {"heap": 0, "tree": 0}
    heap_insert = BinomialHeap.insert
    tree_insert = RedBlackTree.insert

    def counting_heap_insert(self, *args):
        calls["heap"] += 1
        return heap_insert(self, *args)

    def counting_tree_insert(self, *args):
        calls["tree"] += 1
        return tree_insert(self, *args)

    monkeypatch.setattr(BinomialHeap, "insert", counting_heap_insert)
    monkeypatch.setattr(RedBlackTree, "insert", counting_tree_insert)
    _run_instrumented(None, "run-on")
    assert calls == {"heap": 0, "tree": 0}
    _run_instrumented(MetricsRegistry(), "run-on")
    assert calls["heap"] > 0 and calls["tree"] > 0
    observed = dict(calls)
    _run_instrumented(None, "run-on", profile=True)
    assert calls["heap"] > observed["heap"]
    assert calls["tree"] > observed["tree"]


def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(enabled=False)
    _run_instrumented(registry, "run-on")
    assert len(registry) == 0
