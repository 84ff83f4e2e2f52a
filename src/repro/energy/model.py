"""Per-core frequency scaling and the energy ledger.

Guo & Lu (PAPERS.md) observe that fixed-priority scheduling with task
splitting *is* an energy-scheduling problem once per-core frequency
enters the overhead model: slowing a core dilates every nanosecond of
application work and kernel work on it, and the power drawn while doing
so follows the classic CMOS form ``P(f) = P_s + C · f^alpha``.

This module keeps all of that **integer-exact**:

* a core's frequency is a single rational scale (:class:`fractions.
  Fraction`), so time dilation ``1/f`` is one exact multiply per value,
  rounded half-up once — never a chain of drifting floats;
* power levels are integer milliwatts, and because ``1 mW x 1 ns =
  1 pJ`` *exactly*, every ledger entry is an integer picojoule count —
  ``busy + overhead + idle ≡ total`` holds as arithmetic identity, not
  within a tolerance;
* :func:`check_energy_ledger` replays the whole ledger from zero given
  only the per-core busy/overhead counters and the horizon, the same
  discipline as :func:`repro.servers.sim.check_server_ledger` for
  server budgets.

The defaults approximate one Nehalem-class core: ~0.35 W static/idle
draw and ~1.65 W dynamic at full clock, cubic in frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

#: Default static (and idle) power per core, milliwatts.
DEFAULT_STATIC_MW = 350
#: Default dynamic power per core at f = 1, milliwatts.
DEFAULT_DYNAMIC_MW = 1650
#: Default dynamic-power exponent (cubic: V scales with f).
DEFAULT_ALPHA = 3

FreqLike = Union[int, float, str, Fraction]


def round_half_up(value: Union[int, Fraction]) -> int:
    """Round a rational to the nearest integer, ties away from floor.

    Python's ``round`` is banker's rounding (``round(0.5) == 0``); every
    frequency-scaled quantity in this package rounds *half-up* instead so
    that compositions of scales stay monotone and reproducible.

    >>> round_half_up(Fraction(1, 2)), round_half_up(Fraction(5, 2))
    (1, 3)
    >>> round_half_up(Fraction(7, 10))
    1
    """
    if isinstance(value, int):
        return value
    num, den = value.numerator, value.denominator
    return (2 * num + den) // (2 * den)


def scale_ns(value: int, freq: Fraction) -> int:
    """Dilate ``value`` nanoseconds of full-speed work to frequency
    ``freq``: ``value / freq``, rounded half-up.  ``freq == 1`` is the
    exact identity."""
    if freq == 1:
        return value
    return round_half_up(Fraction(value, 1) / freq)


def as_fraction(value: FreqLike) -> Fraction:
    """Normalize a frequency given as int/float/str/Fraction to an exact
    :class:`Fraction`.

    Floats go through their *decimal repr* (``0.8`` becomes ``4/5``, not
    the binary ``3602879701896397/4503599627370496``), so CLI and config
    values mean what they say.
    """
    if isinstance(value, Fraction):
        freq = value
    elif isinstance(value, int):
        freq = Fraction(value)
    elif isinstance(value, float):
        freq = Fraction(str(value))
    elif isinstance(value, str):
        freq = Fraction(value.strip())
    else:
        raise TypeError(f"cannot interpret {value!r} as a frequency")
    if freq <= 0:
        raise ValueError(f"frequency must be positive, got {value!r}")
    return freq


def normalize_frequencies(
    frequencies: Optional[Union[FreqLike, Sequence[FreqLike]]],
    n_cores: int,
) -> Tuple[Fraction, ...]:
    """Per-core frequency vector: ``None`` means all cores at 1; a
    scalar broadcasts; a sequence must have exactly one entry per core."""
    if frequencies is None:
        return (Fraction(1),) * n_cores
    if isinstance(frequencies, (int, float, str, Fraction)):
        return (as_fraction(frequencies),) * n_cores
    freqs = tuple(as_fraction(value) for value in frequencies)
    if len(freqs) != n_cores:
        raise ValueError(
            f"frequencies has {len(freqs)} entries for {n_cores} cores"
        )
    return freqs


def parse_freq_spec(spec: str, n_cores: int) -> Tuple[Fraction, ...]:
    """Parse the CLI ``--freq`` syntax.

    ``"0.8"`` sets every core; ``"0.8,1.0"`` is positional per core;
    ``"0:0.8,2:0.5"`` names cores explicitly (the rest stay at 1).
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("--freq: empty specification")
    parts = [part.strip() for part in spec.split(",") if part.strip()]
    if any(":" in part for part in parts):
        freqs = [Fraction(1)] * n_cores
        for part in parts:
            core_text, _, value = part.partition(":")
            try:
                core = int(core_text)
            except ValueError:
                raise ValueError(f"--freq: bad core index {core_text!r}")
            if not 0 <= core < n_cores:
                raise ValueError(
                    f"--freq: core {core} outside 0..{n_cores - 1}"
                )
            freqs[core] = as_fraction(value)
        return tuple(freqs)
    if len(parts) == 1:
        return normalize_frequencies(parts[0], n_cores)
    return normalize_frequencies(parts, n_cores)


@dataclass(frozen=True)
class PowerModel:
    """``P(f) = static_mw + dynamic_mw · f^alpha``, in integer mW.

    ``idle_mw`` is the clock-gated floor: static draw only.  The active
    level at a rational frequency is rounded half-up to an integer once,
    at ledger-construction time, so energy accrual stays exact.

    >>> PowerModel().active_mw(Fraction(1))
    2000
    >>> PowerModel().active_mw(Fraction(1, 2))
    556
    """

    static_mw: int = DEFAULT_STATIC_MW
    dynamic_mw: int = DEFAULT_DYNAMIC_MW
    alpha: int = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.static_mw < 0 or self.dynamic_mw < 0:
            raise ValueError("power levels must be non-negative")
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")

    @property
    def idle_mw(self) -> int:
        return self.static_mw

    def active_mw(self, freq: FreqLike) -> int:
        f = as_fraction(freq)
        return self.static_mw + round_half_up(self.dynamic_mw * f**self.alpha)

    def as_dict(self) -> dict:
        return {
            "static_mw": self.static_mw,
            "dynamic_mw": self.dynamic_mw,
            "alpha": self.alpha,
        }

    @staticmethod
    def from_dict(data: dict) -> "PowerModel":
        return PowerModel(
            static_mw=int(data["static_mw"]),
            dynamic_mw=int(data["dynamic_mw"]),
            alpha=int(data["alpha"]),
        )


@dataclass(frozen=True)
class CoreEnergy:
    """One core's row of the ledger.  All energies in integer pJ."""

    core: int
    freq_num: int
    freq_den: int
    active_mw: int
    busy_ns: int
    overhead_ns: int
    idle_ns: int
    busy_pj: int
    overhead_pj: int
    idle_pj: int

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.freq_num, self.freq_den)

    @property
    def total_pj(self) -> int:
        return self.busy_pj + self.overhead_pj + self.idle_pj

    def as_dict(self) -> dict:
        return {
            "core": self.core,
            "freq": [self.freq_num, self.freq_den],
            "active_mw": self.active_mw,
            "busy_ns": self.busy_ns,
            "overhead_ns": self.overhead_ns,
            "idle_ns": self.idle_ns,
            "busy_pj": self.busy_pj,
            "overhead_pj": self.overhead_pj,
            "idle_pj": self.idle_pj,
        }

    @staticmethod
    def from_dict(data: dict) -> "CoreEnergy":
        num, den = data["freq"]
        return CoreEnergy(
            core=int(data["core"]),
            freq_num=int(num),
            freq_den=int(den),
            active_mw=int(data["active_mw"]),
            busy_ns=int(data["busy_ns"]),
            overhead_ns=int(data["overhead_ns"]),
            idle_ns=int(data["idle_ns"]),
            busy_pj=int(data["busy_pj"]),
            overhead_pj=int(data["overhead_pj"]),
            idle_pj=int(data["idle_pj"]),
        )


@dataclass(frozen=True)
class EnergyLedger:
    """Per-core busy/overhead/idle energy of one simulation.

    An *empty* ledger (no cores) is the placeholder of a result whose
    run has not settled its ledger; :func:`check_energy_ledger` reports
    it as a core-count mismatch like any other truncated ledger.
    """

    duration_ns: int = 0
    idle_mw: int = 0
    cores: Tuple[CoreEnergy, ...] = ()

    @staticmethod
    def empty() -> "EnergyLedger":
        return EnergyLedger()

    @property
    def is_empty(self) -> bool:
        return not self.cores

    @property
    def busy_pj(self) -> int:
        return sum(core.busy_pj for core in self.cores)

    @property
    def overhead_pj(self) -> int:
        return sum(core.overhead_pj for core in self.cores)

    @property
    def idle_pj(self) -> int:
        return sum(core.idle_pj for core in self.cores)

    @property
    def total_pj(self) -> int:
        return self.busy_pj + self.overhead_pj + self.idle_pj

    @property
    def average_power_mw(self) -> Fraction:
        """Mean platform power over the horizon (sum over cores), exact:
        total pJ over total ns is milliwatts by construction."""
        if self.duration_ns <= 0:
            return Fraction(0)
        return Fraction(self.total_pj, self.duration_ns)

    def energy_per_ns(self, window_ns: int) -> int:
        """Energy (pJ, half-up) a window of ``window_ns`` would cost at
        this run's mean power — used for energy-per-hyperperiod."""
        if self.duration_ns <= 0:
            return 0
        return round_half_up(Fraction(self.total_pj * window_ns,
                                      self.duration_ns))

    def as_dict(self) -> dict:
        return {
            "duration_ns": self.duration_ns,
            "idle_mw": self.idle_mw,
            "cores": [core.as_dict() for core in self.cores],
        }

    @staticmethod
    def from_dict(data: dict) -> "EnergyLedger":
        return EnergyLedger(
            duration_ns=int(data["duration_ns"]),
            idle_mw=int(data["idle_mw"]),
            cores=tuple(
                CoreEnergy.from_dict(core) for core in data["cores"]
            ),
        )


def check_energy_ledger(
    ledger: EnergyLedger,
    busy_ns: Sequence[int],
    overhead_ns: Sequence[int],
    duration: int,
) -> List[str]:
    """Replay the ledger from zero and report violations (empty = clean).

    Given only the independently-maintained per-core busy/overhead
    nanosecond counters and the horizon, every ledger field is forced:
    ``idle = duration - busy - overhead`` (clamped at zero: the final
    kernel op of a run may straddle the horizon, and its *full* cost is
    charged when it starts, matching the overhead counters), each energy
    is the matching time multiplied by the recorded power level, and the
    per-core total must equal ``busy + overhead + idle`` energy exactly.
    Mirrors :func:`repro.servers.sim.check_server_ledger`.
    """
    violations: List[str] = []
    if ledger.duration_ns != duration:
        violations.append(
            f"ledger horizon {ledger.duration_ns} != run horizon {duration}"
        )
    if len(ledger.cores) != len(busy_ns):
        violations.append(
            f"ledger has {len(ledger.cores)} cores, run has {len(busy_ns)}"
        )
        return violations
    for index, core in enumerate(ledger.cores):
        where = f"core {index}"
        if core.core != index:
            violations.append(
                f"{where}: ledger row labelled core {core.core}"
            )
        if core.freq_den <= 0 or core.freq_num <= 0:
            violations.append(f"{where}: non-positive frequency")
            continue
        if core.busy_ns != busy_ns[index]:
            violations.append(
                f"{where}: busy {core.busy_ns} ns, counter says "
                f"{busy_ns[index]} ns"
            )
        if core.overhead_ns != overhead_ns[index]:
            violations.append(
                f"{where}: overhead {core.overhead_ns} ns, counter says "
                f"{overhead_ns[index]} ns"
            )
        expected_idle = max(0, duration - core.busy_ns - core.overhead_ns)
        if core.idle_ns != expected_idle:
            violations.append(
                f"{where}: idle {core.idle_ns} ns, replay says "
                f"{expected_idle} ns"
            )
        accounted = core.busy_ns + core.overhead_ns + core.idle_ns
        if accounted != max(duration, core.busy_ns + core.overhead_ns):
            violations.append(f"{where}: time does not sum to the horizon")
        if core.busy_pj != core.busy_ns * core.active_mw:
            violations.append(
                f"{where}: busy energy {core.busy_pj} pJ != "
                f"{core.busy_ns} ns x {core.active_mw} mW"
            )
        if core.overhead_pj != core.overhead_ns * core.active_mw:
            violations.append(
                f"{where}: overhead energy {core.overhead_pj} pJ != "
                f"{core.overhead_ns} ns x {core.active_mw} mW"
            )
        if core.idle_pj != core.idle_ns * ledger.idle_mw:
            violations.append(
                f"{where}: idle energy {core.idle_pj} pJ != "
                f"{core.idle_ns} ns x {ledger.idle_mw} mW"
            )
        if core.total_pj != core.busy_pj + core.overhead_pj + core.idle_pj:
            violations.append(
                f"{where}: energy does not balance (busy + overhead + "
                "idle != total)"
            )
    return violations
