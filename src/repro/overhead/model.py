"""The overhead model of Section 3 of the paper.

The paper decomposes scheduler overhead into four parts (Figure 1):

* ``rls``  — task release: gaining access to the ready queue plus the insert
  operation, plus the pure cost of ``release()``;
* ``sch``  — scheduling: selecting the highest-priority task (and, on a
  preemption, putting the previously running task back into the ready
  queue), plus the pure cost of ``sch()``;
* ``cnt1`` — context switch from the preempted to the preempting task;
* ``cnt2`` — context switch at job completion (store to the sleep queue),
  at split-budget exhaustion (insert into the *destination core's* ready
  queue — the migration case) or at split-job completion (store to the
  sleep queue of the core hosting the first subtask).

Measured constants reported by the paper (Intel Core-i7, 4 cores,
Linux 2.6.32):

=====================  =======  =======
quantity                 N = 4   N = 64
=====================  =======  =======
ready-queue op (δ)      3.3 µs   4.6 µs
sleep-queue op (θ)      3.3 µs   5.8 µs
=====================  =======  =======

plus load-independent pure costs ``release() = 3 µs``, ``sch() = 5 µs``,
``cnt_swth() = 1.5 µs``.  Queue costs between the two published points are
interpolated linearly in ``log2 N`` (both structures are logarithmic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cache.model import CachePenaltyModel
from repro.model.time import US

#: The two (N, delta_ns, theta_ns) calibration points published in the paper.
PAPER_QUEUE_POINTS = (
    (4, 3300, 3300),
    (64, 4600, 5800),
)


def _log_interpolate(n: int, points=PAPER_QUEUE_POINTS) -> tuple:
    """Interpolate (delta, theta) at queue length ``n`` in log2 space."""
    n = max(1, n)
    (n0, d0, t0), (n1, d1, t1) = points
    x0, x1, x = math.log2(n0), math.log2(n1), math.log2(n)
    if x <= x0:
        slope_d = (d1 - d0) / (x1 - x0)
        slope_t = (t1 - t0) / (x1 - x0)
        return (
            max(0, int(round(d0 + slope_d * (x - x0)))),
            max(0, int(round(t0 + slope_t * (x - x0)))),
        )
    slope_d = (d1 - d0) / (x1 - x0)
    slope_t = (t1 - t0) / (x1 - x0)
    return (
        int(round(d0 + slope_d * (x - x0))),
        int(round(t0 + slope_t * (x - x0))),
    )


@dataclass(frozen=True)
class OverheadModel:
    """All scheduler overhead constants, in nanoseconds.

    ``ready_op_ns`` / ``sleep_op_ns`` are the per-operation queue costs
    (δ and θ in the paper, already fixed for the relevant queue length).
    """

    release_ns: int = 0  # pure cost of release()
    sch_ns: int = 0  # pure cost of sch()
    cnt_swth_ns: int = 0  # pure cost of cnt_swth()
    ready_op_ns: int = 0  # one ready-queue operation (δ)
    sleep_op_ns: int = 0  # one sleep-queue operation (θ)
    cache: CachePenaltyModel = field(default_factory=CachePenaltyModel.none)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero() -> "OverheadModel":
        """The idealised no-overhead model (pure theory)."""
        return OverheadModel()

    @staticmethod
    def paper_core_i7(
        tasks_per_core: int = 4,
        cache: CachePenaltyModel = None,
    ) -> "OverheadModel":
        """The paper's measured values, queue costs interpolated at
        ``tasks_per_core`` entries per queue.

        >>> model = OverheadModel.paper_core_i7(4)
        >>> model.ready_op_ns, model.sleep_op_ns
        (3300, 3300)
        >>> model = OverheadModel.paper_core_i7(64)
        >>> model.ready_op_ns, model.sleep_op_ns
        (4600, 5800)
        """
        delta, theta = _log_interpolate(tasks_per_core)
        return OverheadModel(
            release_ns=3 * US,
            sch_ns=5 * US,
            cnt_swth_ns=1500,
            ready_op_ns=delta,
            sleep_op_ns=theta,
            cache=cache if cache is not None else CachePenaltyModel(),
        )

    def scaled(self, factor: float) -> "OverheadModel":
        """Scale all constant overheads by ``factor`` (sensitivity studies).

        The cache model is left untouched; scale it separately if needed.
        Rounds every field half-up (``round`` would bankers-round fields
        independently, so a uniformly scaled model could land closer to
        zero on some fields than others); ``scaled(1.0)`` is the exact
        identity.
        """
        if factor == 1.0:
            return self

        def s(value: int) -> int:
            return math.floor(value * factor + 0.5)

        return OverheadModel(
            release_ns=s(self.release_ns),
            sch_ns=s(self.sch_ns),
            cnt_swth_ns=s(self.cnt_swth_ns),
            ready_op_ns=s(self.ready_op_ns),
            sleep_op_ns=s(self.sleep_op_ns),
            cache=self.cache,
        )

    def at_frequency(self, freq) -> "OverheadModel":
        """The model as seen by a core clocked at rational ``freq``.

        Kernel work is CPU work: at frequency ``f`` every constant takes
        ``1/f`` times as long in wall nanoseconds.  The scale is applied
        as one exact rational multiply per field, rounded half-up once —
        integer-exact, unlike the float path of :meth:`scaled`.  The
        cache-penalty path is scaled too (see
        :meth:`repro.cache.model.CachePenaltyModel.at_frequency`).
        ``at_frequency(1)`` returns ``self`` — the identity is ``is``-
        level, so a unit frequency cannot perturb a simulation
        (``tests/test_energy.py::TestUnitFrequencyIdentity``).
        """
        from repro.energy.model import as_fraction, scale_ns

        f = as_fraction(freq)
        if f == 1:
            return self
        return OverheadModel(
            release_ns=scale_ns(self.release_ns, f),
            sch_ns=scale_ns(self.sch_ns, f),
            cnt_swth_ns=scale_ns(self.cnt_swth_ns, f),
            ready_op_ns=scale_ns(self.ready_op_ns, f),
            sleep_op_ns=scale_ns(self.sleep_op_ns, f),
            cache=self.cache.at_frequency(f),
        )

    # ------------------------------------------------------------------
    # Event costs, as charged by the simulator (Figure 1 decomposition)
    # ------------------------------------------------------------------

    @property
    def rls(self) -> int:
        """Release overhead: ready-queue access + insert + release() body."""
        return self.release_ns + self.ready_op_ns

    def sch(self, preemption: bool) -> int:
        """Scheduling overhead: pick min from ready queue; on a preemption
        additionally re-insert the previously running task."""
        ops = 2 if preemption else 1
        return self.sch_ns + ops * self.ready_op_ns

    @property
    def cnt1(self) -> int:
        """Context-switch-in overhead (store old context, load new)."""
        return self.cnt_swth_ns

    @property
    def cnt2_finish(self) -> int:
        """Context-switch-out at job completion: sleep-queue insert."""
        return self.cnt_swth_ns + self.sleep_op_ns

    @property
    def cnt2_migrate(self) -> int:
        """Context-switch-out at budget exhaustion: insert the next subtask
        into the destination core's ready queue."""
        return self.cnt_swth_ns + self.ready_op_ns

    @property
    def is_zero(self) -> bool:
        return (
            self.release_ns == 0
            and self.sch_ns == 0
            and self.cnt_swth_ns == 0
            and self.ready_op_ns == 0
            and self.sleep_op_ns == 0
        )

    def describe(self) -> str:
        return (
            f"OverheadModel(rls={self.rls}ns, sch={self.sch(True)}ns/"
            f"{self.sch(False)}ns, cnt1={self.cnt1}ns, "
            f"cnt2_finish={self.cnt2_finish}ns, "
            f"cnt2_migrate={self.cnt2_migrate}ns)"
        )
