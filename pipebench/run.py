#!/usr/bin/env python3
"""Layer-attributed benchmark of the paper pipeline.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (NOTES.md records why each exists and what it stresses):

* ``e3_sweep`` — the E3 acceptance sweep through the experiment engine;
* ``e6_validation`` — the E6 check that accepted sets meet deadlines;
* ``criteria_campaign`` — one criteria campaign cell, cold then warm;
* ``admission`` — a `repro serve` subprocess under open and closed load.

``--trace 0`` measures with no tracing and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Every pass's outputs are checked (the
in-process workloads against ``reference.json``, admission verdicts
against the in-process analysis).  The last line of standard output is
one JSON object; the exit status is 1 when a check failed and 2 when
the program under test is missing.

The seed selects one of ``N_CASES`` input cases, each with committed
reference outputs (``make_reference.py`` regenerates them).  The sweeps
in ``ROTATING`` move on to the next case with every pass, so that a
run's median does not hang on the cost of one case.  Scratch
files live under ``.pipebench-tmp/`` in the checkout and are removed
on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
N_CASES = 32
ALGORITHMS = ("FP-TS", "FFD", "WFD")



def declared_metrics(section):
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}

SIZES = {
    "paper": {
        "e3_sweep": {
            "utilizations": [round(0.600 + 0.025 * i, 3) for i in range(17)],
            "sets": 100,
        },
        "e6_validation": {"algorithms": ["FP-TS", "FFD"], "sets": 20,
                          "horizon_ms": 2000},
        "criteria_campaign": {"utilizations": [0.7, 0.8, 0.9, 0.95],
                              "sets": 100, "sim_sets": 2},
        # rate: about half the closed-loop saturated rate measured at
        # case 0 (~150 requests/s on a 2-core x86 container); a constant.
        "admission": {"rate": 75.0, "warmup": 20, "open_share": 0.7,
                      "rounds": 5},
    },
    "tiny": {
        "e3_sweep": {"utilizations": [0.6, 0.8, 1.0], "sets": 5},
        "e6_validation": {"algorithms": ["FP-TS", "FFD"], "sets": 2,
                          "horizon_ms": 400},
        "criteria_campaign": {"utilizations": [0.7, 0.9], "sets": 5,
                              "sim_sets": 1},
        "admission": {"rate": 40.0, "warmup": 2, "open_share": 0.7,
                      "rounds": 2},
    },
}


def _paper_overheads():
    from repro.overhead.model import OverheadModel

    return OverheadModel.paper_core_i7(3)  # 12 tasks on 4 cores


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# One pass of each in-process workload.  Each returns the host-speed
# window of its timed part (``hostspeed.Window``), the work items done
# in it, the signature compared with
# reference.json, problems found by invariant checks, and cache lookups.
# ----------------------------------------------------------------------


def e3_pass(params, case, scratch, probe):
    from repro.engine import ExperimentEngine, ResultCache
    from repro.experiments.acceptance import AcceptanceConfig, run_acceptance

    config = AcceptanceConfig(
        n_cores=4,
        n_tasks=12,
        sets_per_point=params["sets"],
        utilizations=params["utilizations"],
        seed=case,
        overheads=_paper_overheads(),
        algorithms=ALGORITHMS,
        batch=True,
    )
    engine = ExperimentEngine(
        cache=ResultCache(scratch / "cache"), journal=scratch / "journal.jsonl"
    )
    with probe.window() as window:
        result = run_acceptance(config, engine=engine)
    counts = {
        name: [round(ratio * params["sets"]) for ratio in result.ratios[name]]
        for name in ALGORITHMS
    }
    stats = engine.stats
    return {
        "window": window,
        "items": len(params["utilizations"]) * params["sets"] * len(ALGORITHMS),
        "signature": counts,
        "problems": [],
        "cache": (stats.cache_hits, stats.cache_hits + stats.cache_misses),
    }


def e6_pass(params, case, scratch, probe):
    from repro.experiments.validate import validate_by_simulation
    from repro.kernel.sim import KernelSim
    from repro.model.time import MS

    # validate_by_simulation reports counts only; keep each simulation's
    # counters for the digest and the release total.
    rows = []
    run = KernelSim.run

    def recording_run(sim):
        result = run(sim)
        rows.append(
            [
                result.releases,
                result.miss_count,
                result.preemptions,
                result.migrations,
                result.context_switches,
                result.cache_delay_ns,
                list(result.busy_ns),
                list(result.overhead_ns),
            ]
        )
        return result

    KernelSim.run = recording_run
    try:
        with probe.window() as window:
            reports = [
                validate_by_simulation(
                    algorithm,
                    n_cores=4,
                    n_tasks=12,
                    normalized_utilization=0.85,
                    sets=params["sets"],
                    seed=case,
                    model=_paper_overheads(),
                    horizon=params["horizon_ms"] * MS,
                    check_traces=True,
                )
                for algorithm in params["algorithms"]
            ]
    finally:
        KernelSim.run = run
    signature = {}
    problems = []
    offset = 0
    for report in reports:
        own = rows[offset : offset + report.sets_simulated]
        offset += report.sets_simulated
        signature[report.algorithm] = {
            "simulated": report.sets_simulated,
            "counters_sha256": _sha256(json.dumps(own)),
        }
        if not report.sound:
            problems.append(report.as_table())
    return {
        "window": window,
        "items": sum(row[0] for row in rows),
        "signature": signature,
        "problems": problems,
        "cache": (0, 0),
    }


def campaign_pass(params, case, scratch, probe):
    from repro.engine import ExperimentEngine, ResultCache
    from repro.experiments.campaign import run_campaign

    def campaign(engine):
        return run_campaign(
            core_counts=(4,),
            task_counts=(12,),
            algorithms=ALGORITHMS,
            overhead_specs=(("paper", _paper_overheads()),),
            utilizations=params["utilizations"],
            sets_per_point=params["sets"],
            seed=case,
            engine=engine,
            criteria=True,
            sim_sets=params["sim_sets"],
        )

    cold_engine = ExperimentEngine(cache=ResultCache(scratch / "cache"))
    with probe.window() as window:
        cold_csv = campaign(cold_engine).to_csv()
    warm_engine = ExperimentEngine(cache=ResultCache(scratch / "cache"))
    warm_csv = campaign(warm_engine).to_csv()
    cold, warm = cold_engine.stats, warm_engine.stats
    problems = []
    if cold.cache_hits:
        problems.append(f"cold pass hit the cache {cold.cache_hits} time(s)")
    if warm.cache_misses or warm.cache_hits != warm.units:
        problems.append(
            f"warm rerun: {warm.cache_hits} hit(s), {warm.cache_misses} "
            f"miss(es) over {warm.units} unit(s)"
        )
    if warm_csv != cold_csv:
        problems.append("warm rerun CSV differs from the cold pass")
    lookups = sum(s.cache_hits + s.cache_misses for s in (cold, warm))
    return {
        "window": window,
        "items": len(params["utilizations"]) * params["sets"],
        "signature": {"csv_sha256": _sha256(cold_csv)},
        "problems": problems,
        "cache": (cold.cache_hits + warm.cache_hits, lookups),
    }


PASSES = {
    "e3_sweep": e3_pass,
    "e6_validation": e6_pass,
    "criteria_campaign": campaign_pass,
}
# Sweeps whose pass cost varies from case to case (the campaign cell
# simulates only 8 sets; over ten cases its cost spread by 18%):
# pass i of a run takes case seed + i.  An e6 pass takes 3 s, too few
# per run to cover cases, so it keeps the seed's case.
ROTATING = ("e3_sweep", "criteria_campaign")
WORKLOADS = (*PASSES, "admission")


# ----------------------------------------------------------------------
# Measurement loops
# ----------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload, tmp):
    """Median of five timed fresh-interpreter warm-ups (after one
    untimed one that fills the bytecode caches)."""
    times = []
    for index in range(6):
        command = [
            sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", workload, "--scratch", str(tmp / f"probe{index}"),
        ]
        start = time.perf_counter()
        subprocess.run(
            command, cwd=ROOT, env=_child_env(), check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def _layer_metrics(summary, counts, analysis, batch, passes, cache, extra):
    """Per-layer metrics, per traced pass."""
    layers = summary["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / passes

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / passes

    fpts_calls = layers.get("semipart.fpts", {}).get("calls", 0)
    hits, lookups = cache
    metrics = {
        "semipart.fpts.accept_ratio": (
            counts.get("fpts_accepted", 0) / fpts_calls if fpts_calls else 0.0
        ),
        "analysis.batch.scalar_fallbacks": batch["scalar_fallbacks"] / passes,
        "analysis.fixpoint_iterations": analysis["fixpoint_iterations"] / passes,
        "analysis.probes": analysis["probes"] / passes,
        "analysis.budget_searches": analysis["budget_searches"] / passes,
        "kernel.sim.releases": counts.get("sim_releases", 0) / passes,
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.shard.wait_s": self_s("service.shard"),
    }
    for name in declared_metrics("per_layer"):
        if name in metrics or name in extra:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls(layer)
        elif kind == "self_s":
            metrics[name] = self_s(layer)
    metrics.update(extra)
    return metrics


def _stats_snapshot():
    from repro.analysis import BATCH_STATS, STATS

    return STATS.snapshot(), BATCH_STATS.snapshot()


def _delta(total, before, after):
    for key in after:
        total[key] = total.get(key, 0) + after[key] - before[key]


def run_in_process(workload, params, case, seconds, trace, tmp, reference):
    """Passes of one in-process workload until ``seconds`` have passed;
    with ``trace``, every second pass runs with the layer wrappers.
    Untraced, the host-speed probe runs throughout, and the timings are
    scaled to the reference host speed."""
    import hostspeed

    run_pass = PASSES[workload]
    probe = hostspeed.HostProbe()
    # An untimed tiny pass first, so imports and lazy set-up are done.
    warmup = tmp / "warmup"
    warmup.mkdir(parents=True)
    run_pass(SIZES["tiny"][workload], 0, warmup, probe)
    shutil.rmtree(warmup, ignore_errors=True)
    if not trace:
        probe.start()
    try:
        return _passes(workload, params, case, seconds, trace, tmp,
                       reference, run_pass, probe)
    finally:
        probe.stop()


def _passes(workload, params, case, seconds, trace, tmp, reference,
            run_pass, probe):
    import spans

    tracer = spans.Tracer()
    analysis, batch = {}, {}
    cache = [0, 0]
    walls = {False: [], True: []}
    timed, rates, speeds = [], [], []
    failed = 0
    start = time.perf_counter()
    index = 0
    while (
        index < (2 if trace else 1)
        or time.perf_counter() - start < seconds
    ):
        traced = trace and index % 2 == 1
        pass_case = case
        if workload in ROTATING:  # a traced pass repeats the untraced case
            pass_case = (case + index // (2 if trace else 1)) % N_CASES
        scratch = tmp / f"pass{index}"
        scratch.mkdir(parents=True)
        uninstall = None
        if traced:
            before = _stats_snapshot()
            uninstall = spans.install(tracer)
        began = time.perf_counter()
        try:
            result = run_pass(params, pass_case, scratch, probe)
        finally:
            walls[traced].append(time.perf_counter() - began)
            if uninstall is not None:
                uninstall()
                after = _stats_snapshot()
                _delta(analysis, before[0], after[0])
                _delta(batch, before[1], after[1])
        shutil.rmtree(scratch, ignore_errors=True)
        problems = list(result["problems"])
        if result["signature"] != reference.get(str(pass_case)):
            problems.append(
                f"outputs differ from reference case {pass_case}: "
                f"{json.dumps(result['signature'])}"
            )
        for problem in problems:
            print(f"pass {index}: CHECK FAILED: {problem}", file=sys.stderr)
        failed += bool(problems)
        if traced:
            cache[0] += result["cache"][0]
            cache[1] += result["cache"][1]
        else:
            window = result["window"]
            timed.append(window.scaled_s)
            rates.append(result["items"] / window.scaled_s)
            speeds.append(window.speed)
        index += 1
    outcome = {"attempted": index, "failed": failed}
    if not trace:
        outcome["metrics"] = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "throughput_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(timed) * 1000,
        }
        print(f"{workload}: {len(timed)} pass(es), median "
              f"{statistics.median(timed):.3f} s at the reference speed, "
              f"host speed {min(speeds):.3f}-{max(speeds):.3f}, "
              f"median {statistics.median(speeds):.3f}")
        return outcome
    summary = spans.summarize(tracer)
    passes = len(walls[True])
    outcome["metrics"] = _layer_metrics(
        summary, tracer.counts, analysis, batch, passes, cache,
        {
            # No server, so no HTTP, shedding, or load generator here.
            **dict.fromkeys(
                ("service.http_s", "service.shed_ratio",
                 "service.degraded_ratio", "admission.p99_ms",
                 "loadgen.lag_p99_ms"),
                0.0,
            ),
            "bench.coverage": summary["top_s"] / sum(walls[True]),
            "bench.tracing_overhead": statistics.median(walls[True])
            / statistics.median(walls[False]),
        },
    )
    return outcome


def _admission_rounds(server, stream, params, seconds, plan=None):
    """Warm-up, then rounds of (open loop, closed loop) on one server.

    Alternating the phases spreads both over the whole run, so a slow
    stretch of a shared host does not land on one metric only.  A
    ``plan`` of ``(kind, count)`` replays the requests of an earlier
    call, each closed phase bounded by count instead of time.  Returns
    ``(kind, offset, results, wall, speed)`` per phase.  On a probed
    server the probe runs from the end of the warm-up to the end of the
    last phase, ``speed`` is the host speed over the phase (1 on a
    server without the probe; see ``hostspeed.py``), and a timed closed
    phase's ``wall`` is its work seconds at the reference host speed.
    """
    import hostspeed
    import loadgen

    bodies = [body for _taskset, body in stream]
    _server_cpu, client_cpu = loadgen.cpu_split()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    rounds = params["rounds"]
    closed_s = (1 - params["open_share"]) * seconds / rounds
    if plan is None:
        n_open = max(1, int(params["rate"] * params["open_share"] * seconds
                            / rounds))
        plan = [("open", n_open), ("closed", None)] * rounds
    offset = params["warmup"]
    loadgen.closed_loop(server.port, bodies[:offset])
    totals = server.probe_on() if server.counters else None
    phases = []
    for kind, count in plan:
        if kind == "open":
            results = loadgen.open_loop(
                server.port, bodies[offset : offset + count], params["rate"]
            )
            wall = None
        elif count is None:
            results, wall = loadgen.closed_loop(
                server.port, bodies[offset:], closed_s
            )
        else:
            results, wall = loadgen.closed_loop(
                server.port, bodies[offset : offset + count]
            )
        speed = 1.0
        if totals is not None:
            now = server.counters.read()
            speed = hostspeed.speed_between(totals, now)
            if wall is not None:
                wall = (wall - (now[0] - totals[0])) * speed
            totals = now
        phases.append((kind, offset, results, wall, speed))
        offset += len(results)
    if totals is not None:
        server.probe_off()
    return phases


def _check_verdicts(stream, phases):
    """Count non-200 answers and verdicts that differ from the in-process
    scalar analysis; returns (failed, mismatched)."""
    import loadgen

    failed = mismatched = 0
    for _kind, offset, results, _wall, _speed in phases:
        for position, (_due, _sent, _done, status, body) in enumerate(results):
            if status != 200:
                failed += 1
                continue
            taskset = stream[offset + position][0]
            got = json.loads(body)["verdicts"]
            if got != loadgen.expected_verdicts(taskset):
                mismatched += 1
                print(f"request {offset + position}: verdicts {got} differ "
                      f"from the in-process analysis", file=sys.stderr)
    return failed, mismatched


def _open_results(phases):
    return [entry for kind, _o, results, _w, _s in phases if kind == "open"
            for entry in results]


def _open_latencies_ms(phases):
    """Open-loop latency from each request's due time, at the reference
    host speed of its phase.  An answer other than 200 (or none) is
    charged the client timeout, which misses every latency limit."""
    import loadgen

    return [
        (done - due) * 1000 * speed if status == 200
        else loadgen.TIMEOUT_S * 1000
        for kind, _o, results, _w, speed in phases if kind == "open"
        for due, _sent, done, status, _body in results
    ]


def run_admission(params, case, seconds, trace, tmp):
    import loadgen
    import spans

    closed_cap = int(400 * (1 - params["open_share"]) * seconds) + 1
    n_open = int(params["rate"] * params["open_share"] * seconds) + 1
    stream = loadgen.request_stream(
        case, params["warmup"] + n_open + params["rounds"] + closed_cap
    )
    if not trace:
        boots = []
        server = None
        try:
            for index in range(6):  # boot 0 fills the bytecode caches
                if server is not None:
                    server.stop()
                server = None
                server = loadgen.Server(ROOT, tmp / f"boot{index}",
                                        probed=True)
                boots.append(server.boot_s)
            phases = _admission_rounds(server, stream, params, seconds)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        failed, mismatched = _check_verdicts(stream, phases)
        closed = [(results, wall) for kind, _o, results, wall, _s in phases
                  if kind == "closed"]
        rates = [sum(1 for entry in results if entry[3] == 200) / wall
                 for results, wall in closed]
        sent = sum(len(results) for _k, _o, results, _w, _s in phases)
        speeds = [speed for *_phase, speed in phases]
        print(f"admission: host speed {min(speeds):.3f}-{max(speeds):.3f}, "
              f"median {statistics.median(speeds):.3f}")
        print(f"admission: {len(_open_results(phases))} open-loop request(s) "
              f"at {params['rate']:g}/s, {sent} in all")
        return {
            "attempted": sent,
            "failed": failed + mismatched,
            "mismatched": mismatched,
            "metrics": {
                "setup_s": statistics.median(boots[1:]),
                "peak_rss_mb": rss,
                "throughput_per_s": statistics.median(rates),
                "latency_p50_ms": loadgen.percentile(
                    _open_latencies_ms(phases), 50
                ),
            },
        }

    # Traced run: the rounds on an untraced server, then the very same
    # requests on a traced one.
    server = loadgen.Server(ROOT, tmp / "untraced")
    try:
        phases = _admission_rounds(server, stream, params, seconds)
    finally:
        server.stop()
    traced_out = tmp / "spans.json"
    server = loadgen.Server(ROOT, tmp / "traced", traced_out=traced_out)
    try:
        replayed = _admission_rounds(
            server, stream, params, seconds,
            plan=[(kind, len(results))
                  for kind, _o, results, _w, _s in phases],
        )
    finally:
        server.stop()
    traced = json.loads(traced_out.read_text())
    failed, mismatched = _check_verdicts(stream, phases + replayed)
    answers = [entry for _k, _o, results, _w, _s in replayed
               for entry in results]
    handle_s = traced["summary"]["layers"].get("service.handle", {}).get(
        "total_s", 0.0
    )
    shed = sum(1 for entry in answers if entry[3] in (429, 503))
    degraded = sum(
        1 for entry in answers
        if entry[3] == 200 and "degraded" in json.loads(entry[4])
    )

    def closed_walls(run_phases):
        return sum(wall for kind, _o, _r, wall, _s in run_phases
                   if kind == "closed")

    busy = sum(
        spans.covered([(sent, done) for _d, sent, done, _s, _b in results])
        for kind, _o, results, _w, _s in replayed
        if kind == "closed"
    )
    extra = {
        "service.http_s": sum(done - sent for _d, sent, done, _s, _b in answers)
        - handle_s,
        "service.shed_ratio": shed / len(answers),
        "service.degraded_ratio": degraded / len(answers),
        "admission.p99_ms": loadgen.percentile(_open_latencies_ms(phases), 99),
        "loadgen.lag_p99_ms": loadgen.percentile(
            [(sent - due) * 1000
             for due, sent, _d, _s, _b in _open_results(phases)],
            99,
        ),
        "bench.coverage": busy / closed_walls(replayed),
        "bench.tracing_overhead": closed_walls(replayed) / closed_walls(phases),
    }
    sent = sum(len(results) for _k, _o, results, _w, _s in phases + replayed)
    return {
        "attempted": sent,
        "failed": failed + mismatched,
        "mismatched": mismatched,
        "metrics": _layer_metrics(
            traced["summary"], traced["counts"], traced["analysis"],
            traced["batch"], 1, (0, 0), extra,
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="paper",
                        help="input scale (tiny: smoke tests)")
    parser.add_argument("--reference", type=Path,
                        default=BENCH / "reference.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: the program is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:  # one fresh-interpreter warm-up, timed by the parent
        import hostspeed

        args.scratch.mkdir(parents=True)
        try:
            if args.workload in PASSES:
                PASSES[args.workload](SIZES["tiny"][args.workload], 0,
                                      args.scratch, hostspeed.HostProbe())
        finally:
            shutil.rmtree(args.scratch, ignore_errors=True)
        return 0

    params = SIZES[args.size][args.workload]
    case = args.seed % N_CASES
    tmp_root = ROOT / ".pipebench-tmp"
    tmp = tmp_root / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if args.workload == "admission":
            outcome = run_admission(params, case, args.seconds, args.trace, tmp)
            correct = outcome.pop("mismatched") == 0
        else:
            reference = json.loads(args.reference.read_text())
            reference = reference.get(args.size, {}).get(args.workload, {})
            setup = None if args.trace else measure_setup(args.workload, tmp)
            outcome = run_in_process(
                args.workload, params, case, args.seconds, args.trace, tmp,
                reference,
            )
            if setup is not None:
                outcome["metrics"]["setup_s"] = setup
            correct = outcome["failed"] == 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
