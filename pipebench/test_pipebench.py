"""Smoke tests of the benchmark itself, at the tiny input size.

    python3 -m pytest pipebench -q

Every workload runs once untraced and once traced; the printed metric
names must equal those ``BENCHMARK.json`` declares, in both directions.
The traced run must attribute time only to layers the workload uses,
and a tampered reference value must make the run fail.  The host-speed
probe must leave its probe time out of a window's work seconds.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_bench(*args):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny",
         "--seed", str(SEED), "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, result, completed.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_metric_names_match_declaration(workload, trace):
    code, result, stderr = run_bench("--workload", workload,
                                     "--trace", str(trace))
    assert code == 0, stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["bench.coverage"] >= 0.95
        # Each layer shows up only on the workloads that exercise it.
        if workload in ("e3_sweep", "admission"):
            assert values["kernel.sim.calls"] == 0
        else:
            assert values["kernel.sim.calls"] > 0
        service = [v for name, v in values.items() if name.startswith("service.")]
        if workload == "admission":
            assert values["service.execute.self_s"] > 0
        else:
            assert not any(service)


def test_tampered_reference_fails(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    case = str(SEED % 32)
    reference["tiny"]["e3_sweep"][case]["FFD"][0] += 1
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    code, result, _stderr = run_bench("--workload", "e3_sweep", "--trace", "0",
                                      "--reference", str(tampered))
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "pipebench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "pipebench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "e3_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_host_probe_scales_a_window_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostProbe()
    with probe.window() as idle:
        time.sleep(0.01)
    assert idle.speed == 1.0 and idle.scaled_s == idle.seconds >= 0.01
    probe.start()
    try:
        with probe.window() as window:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    finally:
        probe.stop()
    assert probe.count >= 3
    # The probe time inside the window is not counted as work.
    assert 0 < window.seconds < 0.3
    assert window.speed > 0 and window.scaled_s == window.seconds * window.speed
    assert signal.getsignal(signal.SIGALRM) is previous
