"""Incremental response-time analysis for the partitioners.

The partitioning algorithms (`repro.semipart`, `repro.partition`) are
probe-heavy: one acceptance sweep runs thousands of *"would this core
still be schedulable with this candidate added?"* questions, and the
from-scratch answer — re-sort the core, re-run the Joseph & Pandya fixed
point for every resident entry — repeats almost all of its work between
consecutive probes.  This module factors the per-core analysis state into
a :class:`CoreAnalysisContext` that makes each probe pay only for what
the candidate can actually change:

* **entries above the candidate keep their response times.**  RTA only
  ever looks *upward* (an entry's response depends on the entries at
  higher local priority), so inserting a candidate leaves every
  higher-priority fixed point untouched — the context reuses the
  memoized responses verbatim instead of recomputing them;
* **entries below the candidate warm-start from their cached response.**
  The fixed point ``R = C + sum ceil((R + J_j)/T_j) * C_j`` is monotone
  non-decreasing in ``R`` and in the interference set.  Its classic
  iteration converges to the *least* fixed point from any starting value
  that is a valid lower bound of it: for ``r0 <= R*`` monotonicity gives
  ``f(r0) <= f(R*) = R*`` and (because every fixed point is ``>= C`` and
  ``R*`` is the least one) ``f(r0) >= r0``, so the iterates climb to
  exactly ``R*``.  A response cached *before* the candidate arrived is a
  lower bound of the response *with* the candidate's interference added,
  hence a correct warm start — the iteration lands on the identical
  fixed point, usually in one or two steps instead of dozens;
* **budget searches live inside the context.**
  :meth:`~CoreAnalysisContext.probe_budget` evaluates each candidate
  budget at most once (the from-scratch helpers used to probe the lower
  bound twice) and warm-starts each probe from the responses of the last
  *feasible* (hence smaller) budget — valid because shrinking a body's
  budget by ``d`` shrinks its response by at least ``d`` and shrinks
  everyone else's interference, so the smaller budget's responses lower-
  bound the larger budget's.  On an RTA core it probes first the budget
  ``c`` the time-demand bound of the entries below allows, then ``c + 1``:
  by downward closure that pair proves the maximum in three probes; on a
  miss, binary search covers the range left open.

:mod:`repro.analysis.rta` and :mod:`repro.analysis.edf` stay untouched
as the independent oracles: the ``context-vs-oracle`` differential pair
(:mod:`repro.verify.differential`) replays random probe / commit /
install / remove / clone / budget-search sequences and checks every
verdict and response against them.  :class:`EdfCoreContext` is the
demand-bound (C=D / partitioned-EDF) counterpart: the exact
processor-demand test does not decompose per entry, so it caches the
admission triples and the candidate-side ``C <= D`` pre-check rather
than fixed points.

Every context counts its work in an :class:`AnalysisStats` (default: the
module-global :data:`STATS`), whose counters publish to a
:class:`~repro.metrics.registry.MetricsRegistry` as the deterministic
``ana_*`` family via :func:`repro.metrics.report.record_analysis_stats`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.edf import edf_schedulable
from repro.analysis.rta import _entry_sort_key
from repro.model.assignment import Entry


class AnalysisStats:
    """Work counters for the analysis engines (deterministic, ``ana_*``).

    ``fixpoint_iterations`` counts inner RTA fixed-point steps — the
    quantity the incremental engine exists to shrink; ``probes`` counts
    candidate feasibility questions, ``budget_searches`` completed
    budget searches, ``edf_tests`` full processor-demand evaluations.
    """

    __slots__ = ("fixpoint_iterations", "probes", "budget_searches", "edf_tests")

    def __init__(self) -> None:
        self.fixpoint_iterations = 0
        self.probes = 0
        self.budget_searches = 0
        self.edf_tests = 0

    def reset(self) -> None:
        self.fixpoint_iterations = 0
        self.probes = 0
        self.budget_searches = 0
        self.edf_tests = 0

    def snapshot(self) -> dict:
        return {
            "fixpoint_iterations": self.fixpoint_iterations,
            "probes": self.probes,
            "budget_searches": self.budget_searches,
            "edf_tests": self.edf_tests,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnalysisStats({self.snapshot()})"


#: Module-global counters: every context records here unless given its
#: own instance, so harnesses can ``STATS.reset()`` / ``.snapshot()``
#: around a run without threading a registry through the partitioners.
STATS = AnalysisStats()


def fixed_point(
    budget: int,
    higher: Sequence[Tuple[int, int, int]],
    count: int,
    extra: Optional[Tuple[int, int, int]],
    limit: int,
    start: Optional[int],
    stats: AnalysisStats,
) -> Optional[int]:
    """Least fixed point of ``R = budget + interference(R)``, warm-started.

    ``higher[:count]`` plus the optional ``extra`` triple are the
    interfering ``(wcet, period, jitter)`` entries (``extra`` avoids
    materializing ``higher + [candidate]`` per probe).  ``start`` must be
    a valid lower bound of the least fixed point (see module docstring);
    ``None`` means the cold start ``R = budget``.  Returns the exact
    response, or ``None`` once the iterate exceeds ``limit`` — identical
    to :func:`repro.analysis.rta.response_time` for the same inputs.
    """
    if budget > limit:
        return None
    r = budget
    if start is not None and start > r:
        r = start
    if r > limit:
        return None
    interferers = higher[:count]
    if extra is not None:
        interferers = list(interferers)
        interferers.append(extra)
    iterations = 0
    while True:
        iterations += 1
        interference = 0
        for wcet, period, jitter in interferers:
            interference += -(-(r + jitter) // period) * wcet
        next_r = budget + interference
        if next_r == r:
            stats.fixpoint_iterations += iterations
            return r
        if next_r > limit:
            stats.fixpoint_iterations += iterations
            return None
        r = next_r


def _raw_budget(entry: Entry) -> int:
    return entry.budget


#: Utilization above which :meth:`CoreAnalysisContext.probe` rejects a
#: candidate without any fixed point (the epsilon absorbs float error).
_UTIL_LIMIT = 1.0 + 1e-9

#: Scheduling-point evaluations a budget guess may spend, about a ~24-probe
#: bisection; a 100 us period under a 10 s deadline would need ~10^5.
_GUESS_WORK = 2048


class _ProbeResult:
    """Outcome of one successful probe, kept for commit/warm-start reuse."""

    __slots__ = ("candidate", "key", "pos", "triple", "response", "below")

    def __init__(self, candidate, key, pos, triple, response, below) -> None:
        self.candidate = candidate
        self.key = key
        self.pos = pos
        self.triple = triple
        self.response = response
        self.below = below  # responses of entries at pos.. with candidate added


class _BudgetSearchMixin:
    """Shared maximal-budget search (downward-closed feasibility).

    Evaluates each candidate budget at most once — the from-scratch
    helpers this replaces probed the lower bound twice (once for
    feasibility, once for the response) — and hands the last *feasible*
    probe to :meth:`probe` as the warm start for the next one.
    """

    def probe_budget(
        self,
        lo: int,
        hi: int,
        build: Callable[[int], Optional[Entry]],
    ) -> Tuple[Optional[int], Optional[int]]:
        """Largest budget ``b`` in ``[lo, hi]`` whose ``build(b)`` entry
        the core admits, with that probe's response; ``(None, None)``
        when even ``lo`` fails (or ``build`` vetoes it).

        Feasible budgets form a prefix of ``[lo, hi]``, so feasible ``c``
        next to infeasible ``c + 1`` proves ``c`` maximal.  A context's
        guess ``c`` (:meth:`_budget_guess`) and ``c + 1`` are probed
        first and binary search covers what they leave open: the guess
        sets the probe count, never the answer."""
        if hi < lo:
            return None, None
        entry = build(lo)
        response = self.probe(entry) if entry is not None else None
        if response is None:
            return None, None
        best, best_response = lo, response
        warm = self._capture_warm()
        guess = self._budget_guess(lo, hi, warm)
        seeds = iter(() if guess is None else (guess, guess + 1))
        low, high = lo + 1, hi
        while low <= high:
            mid = next(
                (seed for seed in seeds if low <= seed <= high),
                (low + high) // 2,
            )
            entry = build(mid)
            response = (
                self.probe(entry, warm=warm) if entry is not None else None
            )
            if response is not None:
                best, best_response = mid, response
                warm = self._capture_warm()
                low = mid + 1
            else:
                high = mid - 1
        self.stats.budget_searches += 1
        self._restore_warm(warm)
        return best, best_response

    def _budget_guess(self, lo: int, hi: int, warm) -> Optional[int]:
        return None

    def _capture_warm(self):
        return None

    def _restore_warm(self, warm) -> None:
        pass


class CoreAnalysisContext(_BudgetSearchMixin):
    """Incremental per-core RTA: priority-ordered entries with memoized
    response times.

    ``budget_fn`` maps an entry to its analysis-side budget (raw budget
    by default; the semi-partitioners pass their located-charge
    functions), ``tick_ns`` applies the tick-driven-kernel adjustment of
    :func:`repro.analysis.rta.entry_response_time`.

    Cached responses are maintained as *valid lower bounds* of the
    current response (exact right after a verified commit; installing a
    higher-priority entry can only raise the true value above the
    cache).  Probes use them as warm starts, never as verdicts — an
    entry's feasibility is only ever concluded from a freshly converged
    fixed point, so the lower-bound slack cannot change any decision.
    """

    def __init__(
        self,
        budget_fn: Optional[Callable[[Entry], int]] = None,
        tick_ns: int = 0,
        stats: Optional[AnalysisStats] = None,
    ) -> None:
        self.budget_fn = budget_fn if budget_fn is not None else _raw_budget
        self.tick_ns = tick_ns
        self.stats = stats if stats is not None else STATS
        self.entries: List[Entry] = []  # local priority order, highest first
        self._keys: List[tuple] = []
        self._triples: List[Tuple[int, int, int]] = []
        self._responses: List[Optional[int]] = []
        self._utilization = 0.0
        self._last: Optional[_ProbeResult] = None

    # -- bookkeeping ----------------------------------------------------

    @property
    def utilization(self) -> float:
        return self._utilization

    def __len__(self) -> int:
        return len(self.entries)

    def _triple_of(self, entry: Entry) -> Tuple[int, int, int]:
        return (
            self.budget_fn(entry),
            entry.period,
            entry.jitter + self.tick_ns,
        )

    # -- probing --------------------------------------------------------

    def prepare(self, candidate: Entry) -> tuple:
        """Precompute the candidate's core-independent probe inputs
        (sort key, analysis triple, utilization) for reuse across a
        multi-core scan of sibling contexts (same ``budget_fn``
        semantics and ``tick_ns``); pass the result to :meth:`probe`
        as ``pre``."""
        return (
            _entry_sort_key(candidate),
            self._triple_of(candidate),
            candidate.utilization,
        )

    def probe(
        self,
        candidate: Entry,
        warm: Optional[_ProbeResult] = None,
        pre: Optional[tuple] = None,
    ) -> Optional[int]:
        """Response time of ``candidate`` if the core (with it added)
        stays schedulable, else ``None``.  Analyzes only the candidate
        and the entries strictly below it; ``warm`` may carry a previous
        successful probe on *this* context of a smaller-budget candidate
        for the same slot — identical sort key, residents unchanged, as
        :meth:`probe_budget` guarantees — so its key and position carry
        over verbatim.  ``pre`` is a :meth:`prepare` result.

        The fixed-point loops are inlined (reference semantics:
        :func:`fixed_point`) — this is the hottest code path of the
        partitioning layer and the call/slice overhead was measurable."""
        stats = self.stats
        stats.probes += 1
        self._last = None
        if pre is None:
            util = candidate.utilization
        else:
            key, triple, util = pre
        # Utilization fast path.  If raw utilization would exceed 1 the
        # verdict is already decided: RTA cannot pass every entry of a
        # set with U > 1 (if candidate and all entries below it passed,
        # the whole core would pass — entries above are unaffected — and
        # an RTA-schedulable core has U <= 1).  Skipping the divergent
        # fixed-point iterations changes no decision; the epsilon keeps
        # float accumulation error from ever rejecting a true U <= 1.
        if self._utilization + util > _UTIL_LIMIT:
            return None
        if warm is not None:
            key = warm.key
            pos = warm.pos
            triple = self._triple_of(candidate)
            warm_ok = True
        else:
            if pre is None:
                key = _entry_sort_key(candidate)
                triple = self._triple_of(candidate)
            pos = bisect_right(self._keys, key)
            warm_ok = False
        tick = self.tick_ns
        iterations = 0

        # Candidate's own fixed point; interferers are the entries above.
        budget = triple[0]
        limit = candidate.deadline - tick
        interferers = self._triples[:pos]
        r = budget
        if warm_ok and warm.response > r:
            r = warm.response
        response = None
        if r <= limit:
            while True:
                iterations += 1
                acc = budget
                for wcet, period, jitter in interferers:
                    acc += -(-(r + jitter) // period) * wcet
                if acc == r:
                    response = r
                    break
                if acc > limit:
                    break
                r = acc
        if response is None:
            stats.fixpoint_iterations += iterations
            return None

        # Entries below, top-down; each adds itself to the interferer set
        # of the next.  ``interferers`` already holds everything above the
        # candidate, so append the candidate first.
        interferers.append(triple)
        below: List[int] = []
        entries = self.entries
        triples = self._triples
        responses = self._responses
        for index in range(pos, len(entries)):
            own = triples[index]
            budget = own[0]
            limit = entries[index].deadline - tick
            r = budget
            start = responses[index]
            if start is not None and start > r:
                r = start
            if warm_ok:
                prior = warm.below[index - pos]
                if prior > r:
                    r = prior
            result = None
            if r <= limit:
                while True:
                    iterations += 1
                    acc = budget
                    for wcet, period, jitter in interferers:
                        acc += -(-(r + jitter) // period) * wcet
                    if acc == r:
                        result = r
                        break
                    if acc > limit:
                        break
                    r = acc
            if result is None:
                stats.fixpoint_iterations += iterations
                return None
            below.append(result)
            interferers.append(own)
        stats.fixpoint_iterations += iterations
        self._last = _ProbeResult(candidate, key, pos, triple, response, below)
        return response

    def _capture_warm(self):
        return self._last

    def _restore_warm(self, warm) -> None:
        # After a budget search the last *successful* probe is the best
        # budget's, so a commit of the winning entry can reuse it.
        self._last = warm

    def _budget_guess(self, lo: int, hi: int, warm) -> Optional[int]:
        """Budget search maximum from the time-demand bound of each entry
        below the slot, if the analysis budget is ``a_lo + (b - lo)`` and
        the candidate's own deadline does not bind; ``None`` when the scan
        would cost more than bisecting.  Entry ``i`` passes iff some ``t``
        in ``[R_i(lo), D_i - tick]`` has ``C_i + I_i(t) + n(t) * a <= t``
        (``I_i``: interference from above ``i``; ``n(t) = ceil((t + J_c) /
        T_c)`` candidate jobs), so the largest ``a`` is the maximum over
        ``t`` of ``floor((t - C_i - I_i(t)) / n(t))``.  That ratio rises
        between ceiling steps: only ``D_i - tick`` and each step's last
        instant ``m * T_j - J_j`` need evaluating."""
        a_lo, period_c, jitter_c = warm.triple
        # Largest budget the utilization fast path of probe() admits.
        util = self._utilization
        guess = min(hi, int((_UTIL_LIMIT - util) * period_c) + 2)
        while util + guess / period_c > _UTIL_LIMIT:
            guess -= 1
        triples = self._triples
        work = _GUESS_WORK
        for index in range(warm.pos, len(self.entries)):
            c_i = triples[index][0]
            horizon = self.entries[index].deadline - self.tick_ns
            start = warm.below[index - warm.pos]
            higher = triples[:index]
            points = {horizon}
            for _, period, jitter in higher + [warm.triple]:
                t = -(-(start + jitter) // period) * period - jitter
                steps = range(t, horizon + 1, period)
                work -= len(steps) * (index + 1)
                if work < 0:
                    return None
                points.update(steps)
            room = max(
                (t - c_i - sum(-(-(t + j) // p) * w for w, p, j in higher))
                // -(-(t + jitter_c) // period_c)
                for t in points
            )
            guess = min(guess, lo + room - a_lo)
        return guess

    # -- mutation -------------------------------------------------------

    def commit(self, candidate: Entry) -> int:
        """Verify-and-install ``candidate``; returns its response.

        Reuses the immediately preceding successful :meth:`probe` of the
        same entry object; otherwise probes now.  Raises ``ValueError``
        if the candidate is infeasible (partitioners only commit after a
        successful probe, so this indicates a logic error)."""
        last = self._last
        if last is None or last.candidate is not candidate:
            if self.probe(candidate) is None:
                raise ValueError(
                    f"commit of infeasible candidate {candidate.name}"
                )
            last = self._last
        self.entries.insert(last.pos, candidate)
        self._keys.insert(last.pos, last.key)
        self._triples.insert(last.pos, last.triple)
        self._responses.insert(last.pos, last.response)
        for offset, value in enumerate(last.below):
            self._responses[last.pos + 1 + offset] = value
        self._utilization += candidate.utilization
        self._last = None
        return last.response

    def install(self, entry: Entry, response: Optional[int] = None) -> None:
        """Blind insert (no feasibility check) with an optional known
        response — the commit path of split pieces whose feasibility the
        partitioner already established during the search.  Cached
        responses of entries below stay valid lower bounds (the new
        entry only adds interference)."""
        key = _entry_sort_key(entry)
        pos = bisect_right(self._keys, key)
        self.entries.insert(pos, entry)
        self._keys.insert(pos, key)
        self._triples.insert(pos, self._triple_of(entry))
        self._responses.insert(pos, response)
        self._utilization += entry.utilization
        self._last = None

    def remove(self, entry: Entry) -> None:
        """Remove a resident entry.  Responses below it are invalidated
        (they can only shrink, so the cache would over-estimate — no
        longer a valid *lower* bound for warm starts)."""
        index = self.entries.index(entry)
        del self.entries[index]
        del self._keys[index]
        del self._triples[index]
        del self._responses[index]
        for below in range(index, len(self._responses)):
            self._responses[below] = None
        self._utilization -= entry.utilization
        self._last = None

    def clone(self) -> "CoreAnalysisContext":
        """Independent copy for speculative multi-step edits (PDMS's
        victim splitting); adopt it on success, drop it on failure."""
        copy = CoreAnalysisContext(self.budget_fn, self.tick_ns, self.stats)
        copy.entries = list(self.entries)
        copy._keys = list(self._keys)
        copy._triples = list(self._triples)
        copy._responses = list(self._responses)
        copy._utilization = self._utilization
        return copy

    # -- introspection --------------------------------------------------

    def response_of(self, entry: Entry) -> Optional[int]:
        """Exact current response of a resident entry (recomputes and
        re-memoizes if the cache holds only a lower bound)."""
        index = self.entries.index(entry)
        cached = self._responses[index]
        exact = fixed_point(
            self._triples[index][0],
            self._triples,
            index,
            None,
            entry.deadline - self.tick_ns,
            cached,
            self.stats,
        )
        self._responses[index] = exact
        return exact

    def responses(self) -> List[Tuple[Entry, Optional[int]]]:
        """Exact ``(entry, response)`` for every resident, priority order."""
        return [(entry, self.response_of(entry)) for entry in self.entries]


def _raw_triple(entry: Entry) -> Tuple[int, int, int]:
    return (entry.budget, entry.period, entry.deadline)


class EdfCoreContext(_BudgetSearchMixin):
    """Demand-bound (EDF) admission context with cached triples.

    The exact processor-demand test is a whole-core property, so probes
    cannot reuse per-entry fixed points; what *is* redundant between
    probes — rebuilding every resident's ``(C, T_eff, D)`` triple and
    re-checking residents' ``C <= D`` — is cached here.  ``triple_fn``
    maps an entry to its admission triple (C=D splitting passes its
    located-charge/effective-period form); ``precheck_cd=True`` applies
    the candidate-side ``C <= D`` veto the C=D splitter used to apply to
    the whole core (residents passed it at their own admission, so the
    candidate check is equivalent)."""

    def __init__(
        self,
        triple_fn: Callable[[Entry], Tuple[int, int, int]] = _raw_triple,
        precheck_cd: bool = True,
        stats: Optional[AnalysisStats] = None,
    ) -> None:
        self.triple_fn = triple_fn
        self.precheck_cd = precheck_cd
        self.stats = stats if stats is not None else STATS
        self.entries: List[Entry] = []
        self._triples: List[Tuple[int, int, int]] = []
        self._utilization = 0.0
        self._last_candidate: Optional[Entry] = None

    @property
    def utilization(self) -> float:
        return self._utilization

    def __len__(self) -> int:
        return len(self.entries)

    def prepare(self, candidate: Entry) -> Tuple[int, int, int]:
        """Precompute the candidate's admission triple for reuse across
        a multi-core scan of sibling contexts (same ``triple_fn``
        semantics); pass the result to :meth:`probe` as ``pre``."""
        return self.triple_fn(candidate)

    def probe(
        self,
        candidate: Entry,
        warm: Optional[_ProbeResult] = None,
        pre: Optional[Tuple[int, int, int]] = None,
    ) -> Optional[int]:
        """``1`` when the demand test admits the core with ``candidate``
        added, else ``None`` (the value carries no response semantics —
        EDF admission is a verdict, not a response time)."""
        self.stats.probes += 1
        self._last_candidate = None
        triple = self.triple_fn(candidate) if pre is None else pre
        if self.precheck_cd and triple[0] > triple[2]:
            return None
        self.stats.edf_tests += 1
        if not edf_schedulable(self._triples + [triple]):
            return None
        self._last_candidate = candidate
        return 1

    def commit(self, candidate: Entry) -> int:
        if self._last_candidate is not candidate:
            if self.probe(candidate) is None:
                raise ValueError(
                    f"commit of infeasible candidate {candidate.name}"
                )
        self.install(candidate)
        return 1

    def install(self, entry: Entry, response: Optional[int] = None) -> None:
        self.entries.append(entry)
        self._triples.append(self.triple_fn(entry))
        self._utilization += entry.utilization
        self._last_candidate = None

    def remove(self, entry: Entry) -> None:
        index = self.entries.index(entry)
        del self.entries[index]
        del self._triples[index]
        self._utilization -= entry.utilization
        self._last_candidate = None

    def clone(self) -> "EdfCoreContext":
        copy = EdfCoreContext(self.triple_fn, self.precheck_cd, self.stats)
        copy.entries = list(self.entries)
        copy._triples = list(self._triples)
        copy._utilization = self._utilization
        return copy
