"""Energy ledger, DVFS scaling, and power-model tests.

Four layers:

* **unit properties** — ``round_half_up`` / ``scale_ns`` arithmetic,
  ``OverheadModel.scaled`` rounding (the satellite bugfix: half-up, and
  ``scaled(1.0)`` is an identity), frequency parsing, and the power
  model's closed forms;
* **ledger balance oracle** — 30+ seeded scenarios across the fp, edf,
  restricted, and global scheduling classes x fault plans x frequency
  vectors: every simulation's energy ledger must replay from zero
  (busy + overhead + idle pJ == total pJ, slice sums match the result's
  busy/overhead counters) via :func:`repro.energy.model.
  check_energy_ledger` and the ``energy-ledger`` trace checker;
* **physical sanity** — lower frequency never increases mean power,
  and the unit-frequency ledger matches the unscaled simulation's;
* **unit-frequency identity** — every spelling of an all-ones frequency
  vector reproduces the unscaled simulator byte for byte.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from repro.energy.model import (
    EnergyLedger,
    PowerModel,
    as_fraction,
    check_energy_ledger,
    normalize_frequencies,
    parse_freq_spec,
    round_half_up,
    scale_ns,
)
from repro.experiments.algorithms import build_assignment
from repro.faults.plan import FaultPlan, TaskFaults
from repro.kernel import KernelSim, build_global_assignment
from repro.model.generator import TaskSetGenerator
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.trace.validate import CheckContext, run_checkers
from repro.verify import result_to_canonical
from repro.verify.differential import _accepted_assignment
from repro.verify.differential import _fault_plan as _identity_fault_plan


class TestRationalArithmetic:
    def test_round_half_up_exact_halves(self):
        assert round_half_up(Fraction(1, 2)) == 1
        assert round_half_up(Fraction(3, 2)) == 2
        assert round_half_up(Fraction(5, 2)) == 3

    def test_round_half_up_integers_unchanged(self):
        for value in range(0, 20):
            assert round_half_up(Fraction(value)) == value

    @pytest.mark.parametrize("seed", range(5))
    def test_round_half_up_within_half(self, seed):
        import random

        rng = random.Random(seed)
        for _ in range(200):
            value = Fraction(rng.randrange(10**6), rng.randrange(1, 999))
            rounded = round_half_up(value)
            assert abs(Fraction(rounded) - value) <= Fraction(1, 2)

    def test_scale_ns_identity_at_unit_frequency(self):
        for value in (0, 1, 7, 123456789):
            assert scale_ns(value, Fraction(1)) == value

    def test_scale_ns_doubles_at_half_frequency(self):
        assert scale_ns(10, Fraction(1, 2)) == 20

    def test_as_fraction_decimal_strings(self):
        assert as_fraction("0.8") == Fraction(4, 5)
        assert as_fraction(0.5) == Fraction(1, 2)


class TestScaledOverheads:
    """Satellite bugfix: ``OverheadModel.scaled`` rounds half-up and
    ``scaled(1.0)`` is an exact identity."""

    FIELDS = (
        "release_ns",
        "sch_ns",
        "cnt_swth_ns",
        "ready_op_ns",
        "sleep_op_ns",
    )

    def test_scaled_one_is_identity(self):
        model = OverheadModel.paper_core_i7(4)
        assert model.scaled(1.0) is model

    def test_scaled_rounds_half_up(self):
        model = OverheadModel(
            release_ns=3,
            sch_ns=5,
            cnt_swth_ns=7,
            ready_op_ns=9,
            sleep_op_ns=11,
        )
        half = model.scaled(0.5)
        # 1.5 -> 2, 2.5 -> 3, 3.5 -> 4, 4.5 -> 5, 5.5 -> 6: always up,
        # never bankers-rounded per field.
        assert half.release_ns == 2
        assert half.sch_ns == 3
        assert half.cnt_swth_ns == 4
        assert half.ready_op_ns == 5
        assert half.sleep_op_ns == 6

    @pytest.mark.parametrize("factor", [0.25, 0.5, 0.75, 1.5, 2.0])
    def test_scaled_never_drifts_more_than_half(self, factor):
        model = OverheadModel.paper_core_i7(4)
        scaled = model.scaled(factor)
        for field in self.FIELDS:
            exact = getattr(model, field) * factor
            assert abs(getattr(scaled, field) - exact) <= 0.5

    def test_at_frequency_unit_is_same_object(self):
        model = OverheadModel.paper_core_i7(4)
        assert model.at_frequency(Fraction(1)) is model


class TestFrequencyParsing:
    def test_none_broadcasts_unit(self):
        assert normalize_frequencies(None, 3) == (Fraction(1),) * 3

    def test_scalar_broadcasts(self):
        assert normalize_frequencies("0.8", 2) == (Fraction(4, 5),) * 2

    def test_sequence_length_checked(self):
        with pytest.raises(ValueError, match="entries for"):
            normalize_frequencies([1, 1, 1], 2)

    def test_parse_scalar(self):
        assert parse_freq_spec("0.8", 4) == (Fraction(4, 5),) * 4

    def test_parse_positional(self):
        assert parse_freq_spec("0.5,1.0", 2) == (
            Fraction(1, 2),
            Fraction(1),
        )

    def test_parse_named_cores(self):
        assert parse_freq_spec("0:0.8,2:0.5", 4) == (
            Fraction(4, 5),
            Fraction(1),
            Fraction(1, 2),
            Fraction(1),
        )

    def test_parse_rejects_bad_core(self):
        with pytest.raises(ValueError):
            parse_freq_spec("9:0.5", 2)


class TestPowerModel:
    def test_defaults_closed_form(self):
        power = PowerModel()
        assert power.active_mw(Fraction(1)) == 350 + 1650
        assert power.idle_mw == 350

    def test_cubic_scaling(self):
        power = PowerModel()
        # 350 + 1650 * (1/2)^3 = 350 + 206.25 -> half-up 556.
        assert power.active_mw(Fraction(1, 2)) == 556

    def test_lower_frequency_never_costs_more(self):
        power = PowerModel()
        freqs = [Fraction(n, 10) for n in range(1, 11)]
        watts = [power.active_mw(f) for f in freqs]
        assert watts == sorted(watts)


def _ledger_ok(result, assignment=None) -> None:
    problems = check_energy_ledger(
        result.energy,
        list(result.busy_ns),
        list(result.overhead_ns),
        result.duration,
    )
    assert problems == [], problems
    if assignment is not None:
        # And the trace-oracle spelling of the same check.
        ctx = CheckContext.from_result(result, assignment)
        violations = [
            v for v in run_checkers(ctx) if v.kind == "energy-ledger"
        ]
        assert violations == [], violations


def _fault_plan(kind: str, seed: int):
    if kind == "none":
        return None
    return FaultPlan(
        default=TaskFaults(
            overrun_factor=1.4,
            overrun_probability=0.25,
            release_jitter_ns=MS // 2,
        ),
        seed=seed,
    )


class TestLedgerBalance:
    """The ledger replay oracle across classes x faults x frequencies."""

    CASES = [
        (index, algo, sched, plan, freq)
        for index, (algo, sched) in enumerate(
            (
                ("FP-TS", None),
                ("P-EDF", "edf"),
                ("FP-TS", "restricted"),
                ("G-EDF", "global-edf"),
            )
        )
        for plan in ("none", "moderate")
        for freq in (None, "0.8", [Fraction(1, 2), Fraction(1)])
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_ledger_balances(self, case):
        index, algorithm, sched_class, plan_kind, freq = case
        seed = 100 * index + (0 if plan_kind == "none" else 7)
        generator = TaskSetGenerator(n_tasks=5, seed=seed)
        taskset = generator.generate(1.1)
        if sched_class in ("global-edf",):
            assignment = build_global_assignment(taskset, 2)
        else:
            assignment = build_assignment(
                algorithm, taskset, 2, OverheadModel.zero()
            )
            if assignment is None:
                pytest.skip("generated set rejected")
        if isinstance(freq, list):
            freq = freq[: 2]
        result = KernelSim(
            assignment,
            OverheadModel.paper_core_i7(3),
            duration=max(t.period for t in taskset),
            execution_times={t.name: t.wcet for t in taskset},
            seed=seed,
            faults=_fault_plan(plan_kind, seed),
            sched_class=sched_class,
            frequencies=freq,
            power=PowerModel(),
            record_trace=True,
        ).run()
        _ledger_ok(result, assignment)

    def test_ledger_matches_result_counters(self):
        taskset = TaskSetGenerator(n_tasks=6, seed=9).generate(1.4)
        assignment = build_assignment(
            "FFD", taskset, 2, OverheadModel.zero()
        )
        assert assignment is not None
        result = KernelSim(
            assignment,
            OverheadModel.paper_core_i7(3),
            duration=200 * MS,
            execution_times={t.name: t.wcet for t in taskset},
        ).run()
        for core_row, busy, overhead in zip(
            result.energy.cores, result.busy_ns, result.overhead_ns
        ):
            assert core_row.busy_ns == busy
            assert core_row.overhead_ns == overhead

    def test_resources_with_frequencies_rejected(self):
        from repro.model.resources import CriticalSection, ResourceModel

        taskset = TaskSetGenerator(n_tasks=4, seed=3).generate(0.8)
        assignment = build_assignment(
            "FFD", taskset, 2, OverheadModel.zero()
        )
        assert assignment is not None
        first = next(iter(taskset))
        resources = ResourceModel()
        resources.add(
            first.name,
            CriticalSection(
                resource="r0", start=0, duration=max(1, first.wcet // 4)
            ),
        )
        with pytest.raises(ValueError, match="resource sharing"):
            KernelSim(
                assignment,
                OverheadModel.zero(),
                duration=50 * MS,
                resources=resources,
                frequencies="0.8",
            )


class TestPhysicalSanity:
    def _power_at(self, freq) -> float:
        taskset = TaskSetGenerator(n_tasks=5, seed=17).generate(0.9)
        assignment = build_assignment(
            "FFD", taskset, 2, OverheadModel.zero()
        )
        assert assignment is not None
        result = KernelSim(
            assignment,
            OverheadModel.paper_core_i7(3),
            duration=100 * MS,
            execution_times={t.name: t.wcet for t in taskset},
            frequencies=freq,
        ).run()
        _ledger_ok(result)
        return float(result.energy.average_power_mw)

    def test_slower_cores_draw_less_power(self):
        assert self._power_at("0.5") < self._power_at("0.8")
        assert self._power_at("0.8") < self._power_at(None)

    def test_unit_frequency_ledger_matches_unscaled(self):
        taskset = TaskSetGenerator(n_tasks=5, seed=23).generate(1.0)
        assignment = build_assignment(
            "FP-TS", taskset, 2, OverheadModel.zero()
        )
        assert assignment is not None

        def run(freq):
            return KernelSim(
                assignment,
                OverheadModel.paper_core_i7(3),
                duration=100 * MS,
                execution_times={t.name: t.wcet for t in taskset},
                frequencies=freq,
            ).run()

        assert run(None).energy == run("1.0").energy

    def test_energy_per_window_scales_linearly(self):
        ledger = EnergyLedger(
            duration_ns=100,
            idle_mw=350,
            cores=(),
        )
        assert ledger.energy_per_ns(50) == 0  # empty ledger
        taskset = TaskSetGenerator(n_tasks=4, seed=2).generate(0.8)
        assignment = build_assignment(
            "FFD", taskset, 2, OverheadModel.zero()
        )
        assert assignment is not None
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=100 * MS,
            execution_times={t.name: t.wcet for t in taskset},
        ).run()
        energy = result.energy
        one = energy.energy_per_ns(10**6)
        ten = energy.energy_per_ns(10**7)
        assert math.isclose(ten, 10 * one, rel_tol=1e-9, abs_tol=5)


class TestUnitFrequencyIdentity:
    """Frequency 1, in every spelling, *is* the unscaled simulator.

    ``OverheadModel.at_frequency(1)`` returns the model itself, so an
    all-ones vector must leave every simulated nanosecond, the energy
    ledger, and its balance untouched.  The scenarios cover FP-TS under
    ``fp`` and C=D under ``edf``, sporadic jitter, execution variation,
    and the none / moderate / full fault plans.
    """

    @pytest.mark.parametrize(
        "frequencies,policy,plan_kind,seed",
        [
            pytest.param(1, "fp", "none", 21, id="scalar-fp-none"),
            pytest.param(
                [1, 1], "edf", "moderate", 22, id="list-edf-moderate"
            ),
            pytest.param("1.0", "fp", "full", 23, id="string-fp-full"),
            pytest.param(1, "edf", "none", 24, id="scalar-edf-none"),
            pytest.param([1, 1], "fp", "moderate", 25, id="list-fp-moderate"),
            pytest.param("1.0", "edf", "full", 26, id="string-edf-full"),
        ],
    )
    def test_unit_frequency_is_unscaled(
        self, frequencies, policy, plan_kind, seed
    ):
        algorithm = "FP-TS" if policy == "fp" else "C=D"
        taskset, assignment = _accepted_assignment(algorithm, seed)
        assert assignment is not None

        def simulate(frequencies, power):
            return KernelSim(
                assignment,
                OverheadModel.paper_core_i7(4),
                4 * max(task.period for task in taskset),
                record_trace=True,
                policy=policy,
                sporadic_jitter=MS,
                execution_variation=0.3,
                seed=seed,
                faults=_identity_fault_plan(plan_kind, seed),
                frequencies=frequencies,
                power=power,
            ).run()

        unscaled = simulate(None, None)
        unit = simulate(frequencies, PowerModel())
        assert json.dumps(
            result_to_canonical(unscaled), sort_keys=True
        ) == json.dumps(result_to_canonical(unit), sort_keys=True)
        assert unscaled.energy == unit.energy
        for result in (unscaled, unit):
            assert check_energy_ledger(
                result.energy,
                result.busy_ns,
                result.overhead_ns,
                result.duration,
            ) == []


class TestCheckEnergyLedger:
    def test_detects_tampered_totals(self):
        taskset = TaskSetGenerator(n_tasks=4, seed=4).generate(0.8)
        assignment = build_assignment(
            "FFD", taskset, 2, OverheadModel.zero()
        )
        assert assignment is not None
        result = KernelSim(
            assignment,
            OverheadModel.paper_core_i7(3),
            duration=50 * MS,
            execution_times={t.name: t.wcet for t in taskset},
        ).run()
        good = result.energy
        bad_core = good.cores[0]
        from dataclasses import replace

        tampered = replace(
            good,
            cores=(replace(bad_core, busy_pj=bad_core.busy_pj + 1),)
            + good.cores[1:],
        )
        problems = check_energy_ledger(
            tampered,
            list(result.busy_ns),
            list(result.overhead_ns),
            result.duration,
        )
        assert problems != []

    def test_empty_ledger_is_a_core_count_mismatch(self):
        problems = check_energy_ledger(EnergyLedger.empty(), [5, 5], [1, 1], 100)
        assert "ledger has 0 cores, run has 2" in problems

    def test_checker_reports_empty_ledger_and_skips_missing_one(self):
        def context(energy):
            return CheckContext(
                trace=[],
                assignment=None,
                duration=100,
                busy_ns=[5, 5],
                overhead_ns=[1, 1],
                energy=energy,
            )

        details = [
            violation.detail
            for violation in run_checkers(
                context(EnergyLedger.empty()), ["energy-ledger"]
            )
        ]
        assert "ledger has 0 cores, run has 2" in details
        assert run_checkers(context(None), ["energy-ledger"]) == []
