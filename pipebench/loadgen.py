"""Admission workload: the seeded request stream, the `repro serve`
subprocess, and the open- and closed-loop load generators.

One client process drives the server with two threads, so at most two
requests are ever in flight (the container has two cores).  The open
loop gives request ``i`` the due time ``start + i / rate`` and times it
from that due time, so a stall also charges the requests queued behind
it; the closed loop sends each thread's next request when its previous
one has been answered.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

ALGORITHMS = ("FP-TS", "FFD", "WFD")
N_CORES = 4
N_TASKS = 12
CLIENT_THREADS = 2
TIMEOUT_S = 10.0


def request_stream(seed: int, count: int):
    """``count`` distinct 12-task sets with U/m spread over 0.6-1.0, each
    paired with the JSON body that asks for its admission verdicts."""
    import random

    from repro.model.generator import TaskSetGenerator
    from repro.model.io import taskset_from_dict

    generator = TaskSetGenerator(n_tasks=N_TASKS, seed=seed)
    spread = random.Random(seed)
    stream = []
    for _ in range(count):
        taskset = generator.generate((0.6 + 0.4 * spread.random()) * N_CORES)
        tasks = [
            {
                "name": task.name,
                "wcet_us": task.wcet / 1000,
                "period_us": task.period / 1000,
                "deadline_us": task.deadline / 1000,
                "wss_kib": task.wss / 1024,
            }
            for task in taskset
        ]
        parsed = taskset_from_dict({"tasks": tasks})
        if [(t.wcet, t.period, t.deadline, t.wss) for t in parsed] != [
            (t.wcet, t.period, t.deadline, t.wss) for t in taskset
        ]:
            raise ValueError("request body does not round-trip its task set")
        body = {
            "tasks": tasks,
            "cores": N_CORES,
            "algorithms": list(ALGORITHMS),
            "overheads": "paper",
        }
        stream.append((taskset, json.dumps(body).encode()))
    return stream


def expected_verdicts(taskset) -> dict:
    """The in-process scalar verdicts the server must reproduce."""
    from repro.experiments.algorithms import accept
    from repro.overhead.model import OverheadModel

    model = OverheadModel.paper_core_i7(N_TASKS // N_CORES)
    return {name: accept(name, taskset, N_CORES, model) for name in ALGORITHMS}


def _exchange(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def post(port: int, body: bytes):
    """One admission request → (status, body); status 0 = no answer."""
    try:
        return _exchange(port, "POST", "/v1/admission", body)
    except (OSError, http.client.HTTPException):
        return 0, b""


def cpu_split():
    """(server CPU, client CPU) when two or more CPUs are available:
    pinning keeps the server and its load generator from trading cores
    between runs.  (None, None) otherwise."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


class Server:
    """A `repro serve` subprocess on a free port (2 shards, the default).

    ``traced_out`` runs it through ``serve_traced.py`` instead, which
    installs the layer wrappers and writes their summary there on exit.
    ``probed`` runs it through ``serve_probed.py``, which times the
    host-speed probe between ``probe_on`` and ``probe_off``.
    """

    def __init__(self, root: Path, workdir: Path, traced_out=None,
                 probed=False) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONHASHSEED"] = "0"
        here = Path(__file__).resolve().parent
        self.counters = None
        if traced_out is not None:
            command = [sys.executable, str(here / "serve_traced.py"),
                       str(traced_out)]
        elif probed:
            self._counters_path = workdir / "probe.bin"
            command = [sys.executable, str(here / "serve_probed.py"),
                       str(self._counters_path)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        command += ["--port", "0", "--data-dir", str(workdir / "data")]
        started = time.perf_counter()
        self._stderr = open(workdir / "stderr.log", "wb")
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            server_cpu, _client_cpu = cpu_split()
            if server_cpu is not None:
                os.sched_setaffinity(self.process.pid, {server_cpu})
            line = self.process.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(
                    f"server did not start (see {workdir / 'stderr.log'})"
                )
            self.port = int(match.group(1))
            deadline = time.monotonic() + 60
            while True:
                try:
                    if _exchange(self.port, "GET", "/readyz")[0] == 200:
                        break
                except (OSError, http.client.HTTPException):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /readyz")
                time.sleep(0.005)
            self.boot_s = time.perf_counter() - started
            if probed:
                self.counters = hostspeed.SharedCounters(self._counters_path)
        except BaseException:
            self.stop()
            raise

    def probe_on(self):
        """Start the server's probe; returns its totals so far."""
        self.process.send_signal(signal.SIGUSR1)
        return self.counters.read()

    def probe_off(self):
        """Stop the server's probe; returns its totals."""
        totals = self.counters.read()
        self.process.send_signal(signal.SIGUSR2)
        return totals

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()
        if self.counters is not None:
            self.counters.close()
            self.counters = None


def _drive(port, bodies, due_of, stop_at=None):
    """Send ``bodies`` from two threads; ``due_of(i)`` is the open-loop
    due time of request ``i`` (None: send when a thread is free).
    Returns ``(due, sent, done, status, body)`` per request sent."""
    results = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [0]

    def worker():
        while True:
            with lock:
                index = cursor[0]
                if index >= len(bodies) or (
                    stop_at is not None and time.perf_counter() >= stop_at
                ):
                    return
                cursor[0] += 1
            due = due_of(index) if due_of is not None else None
            if due is not None:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            status, body = post(port, bodies[index])
            results[index] = (due, sent, time.perf_counter(), status, body)

    threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [entry for entry in results if entry is not None]


def open_loop(port, bodies, rate):
    """Every body at ``rate`` requests per second from a fixed schedule."""
    start = time.perf_counter() + 0.01
    return _drive(port, bodies, lambda index: start + index / rate)


def closed_loop(port, bodies, seconds=None):
    """Back-to-back requests until ``seconds`` pass (or bodies run out);
    returns the results and the wall time until the last answer."""
    start = time.perf_counter()
    stop_at = start + seconds if seconds is not None else None
    results = _drive(port, bodies, None, stop_at)
    wall = max(entry[2] for entry in results) - start if results else 0.0
    return results, wall


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
