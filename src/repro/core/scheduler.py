"""Adaptive scheduling: per-donor performance models and unit sizing.

The paper (Sect. 3.1): *"The parallel granularity is dynamically
controlled during each search to match the processing abilities of the
current set of donor machines."*  The mechanism (from the companion
adaptive-scheduling paper [12]) is: track each donor's measured
throughput on each problem, then size that donor's next unit so it takes
a fixed target wall-clock time.  Fast donors get big units (less
per-unit overhead); slow donors get small units (they finish within a
lease, and a loss to churn wastes little work).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field


@dataclass(slots=True)
class PerfModel:
    """EWMA throughput estimate for one (donor, problem) pair.

    ``items_per_second`` is exponentially smoothed so a donor whose
    background load changes (the machines are *semi-idle* desktops) is
    re-estimated within a few units.
    """

    alpha: float = 0.5
    items_per_second: float = 0.0
    samples: int = 0
    last_items: int = 0

    def observe(self, items: int, seconds: float) -> None:
        # Sub-microsecond (or zero/negative) completion: treat as a very
        # fast donor rather than dividing by ~zero — a denormal duration
        # would overflow the rate to infinity.
        seconds = max(seconds, 1e-6)
        rate = items / seconds
        if self.samples == 0:
            self.items_per_second = rate
        else:
            self.items_per_second += self.alpha * (rate - self.items_per_second)
        self.samples += 1
        self.last_items = items

    @property
    def calibrated(self) -> bool:
        return self.samples > 0


@dataclass(slots=True)
class DonorState:
    """Everything the server remembers about one donor.

    ``active_units`` lists every ``(problem_id, unit_id)`` the donor
    currently holds a lease on, in grant order.  The pipelined runtime
    leases a donor up to ``PipelineConfig.lease_depth`` units at once
    (one computing, the next prefetching); the historical serial donor
    holds at most one.

    ``slots`` is the donor's advertised parallel capacity: how many
    units its worker pool can compute concurrently.  A plain serial
    donor advertises 1.  The lease-depth gate scales with it (see
    :meth:`PipelineConfig.depth_for`), so an 8-core donor may hold
    eight times the leases of a laptop.
    """

    donor_id: str
    registered_at: float
    last_seen: float
    perf: dict[int, PerfModel] = field(default_factory=dict)
    units_completed: int = 0
    items_completed: int = 0
    busy_seconds: float = 0.0
    active_units: list[tuple[int, int]] = field(default_factory=list)
    slots: int = 1

    @property
    def active_unit(self) -> tuple[int, int] | None:
        """The earliest-granted unit still held (None when idle)."""
        return self.active_units[0] if self.active_units else None

    def start_unit(self, problem_id: int, unit_id: int) -> bool:
        """Hold a unit; True when the donor was idle until now."""
        self.active_units.append((problem_id, unit_id))
        return len(self.active_units) == 1

    def end_unit(self, problem_id: int, unit_id: int) -> bool:
        """Forget a held unit (a no-op when it was already cleared);
        True when that left the donor idle."""
        try:
            self.active_units.remove((problem_id, unit_id))
        except ValueError:
            return False
        return not self.active_units

    def perf_for(self, problem_id: int, alpha: float = 0.5) -> PerfModel:
        model = self.perf.get(problem_id)
        if model is None:
            model = PerfModel(alpha=alpha)
            self.perf[problem_id] = model
        return model

    def capacity_rate(self) -> float:
        """Per-slot items/sec across every problem this donor has run.

        Pooled units are each timed on their own core, so every
        per-problem EWMA is already a *per-slot* rate; the mean over
        calibrated models is the donor-level capacity estimate used to
        warm-start sizing on problems the donor has not touched yet.
        Returns 0.0 while the donor is entirely uncalibrated.
        """
        rates = [m.items_per_second for m in self.perf.values() if m.calibrated]
        if not rates:
            return 0.0
        return sum(rates) / len(rates)


class GranularityPolicy(abc.ABC):
    """Decides how many items the next unit for a donor should hold."""

    @abc.abstractmethod
    def items_for(
        self, donor: DonorState, problem_id: int, remaining: int | None = None
    ) -> int:
        """Number of items (>= 1) for this donor's next unit.

        ``remaining`` is the server's count of items not yet cut into
        units (None when the DataManager cannot count).  Policies may
        use it to taper unit size near the end of a problem.
        """


class FixedGranularity(GranularityPolicy):
    """The naive baseline: every unit holds the same number of items.

    This is what the paper's adaptive control is measured against in
    ablation ABL1 — on a heterogeneous pool a fixed size is either too
    big for slow donors (stragglers at the end of the search) or too
    small for fast ones (per-unit overhead dominates).
    """

    def __init__(self, items: int):
        if items < 1:
            raise ValueError("fixed granularity must be >= 1 item")
        self.items = items

    def items_for(
        self, donor: DonorState, problem_id: int, remaining: int | None = None
    ) -> int:
        return self.items


class AdaptiveGranularity(GranularityPolicy):
    """Size units so each takes ``target_seconds`` on the target donor.

    Parameters
    ----------
    target_seconds:
        Desired wall-clock duration of one unit.  The paper's deployment
        balances per-unit round-trip overhead (favouring long units)
    	against scheduling responsiveness and loss-on-churn (favouring
        short ones).
    probe_items:
        Unit size handed to an uncalibrated donor; small, so the first
        measurement arrives quickly.
    min_items, max_items:
        Clamp bounds for pathological throughput estimates.
    alpha:
        EWMA smoothing factor for the per-donor throughput model.
    max_growth:
        A donor's next unit may be at most this multiple of its previous
        one.  Per-item costs vary (database sequences have very
        different lengths), so a single probe is a noisy rate estimate;
        ramping geometrically prevents one lucky probe from handing a
        donor the entire remaining problem as a single straggler unit.
    tail_factor:
        When set (> 1), a unit may never take more than
        ``remaining / tail_factor`` of the items still uncut — so as a
        problem (or DPRml stage) drains, units shrink geometrically and
        the last stretch splits across several donors instead of
        becoming one straggler unit that stalls the barrier.  ``None``
        (the default) keeps the historical sizing.
    warm_start:
        When True, a donor uncalibrated on *this* problem but calibrated
        on others seeds its first unit from its donor-level per-slot
        capacity EWMA (:meth:`DonorState.capacity_rate`) instead of the
        blind ``probe_items`` — a fast 8-core box starts near its real
        capacity while an unknown laptop still gets the cautious probe.
        The warm first unit is capped at ``probe_items * max_growth``,
        the same ramp bound a lucky probe would have earned.
    """

    def __init__(
        self,
        target_seconds: float = 60.0,
        probe_items: int = 1,
        min_items: int = 1,
        max_items: int = 1_000_000,
        alpha: float = 0.5,
        max_growth: float = 4.0,
        tail_factor: float | None = None,
        warm_start: bool = True,
    ):
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        if not (1 <= min_items <= max_items):
            raise ValueError("need 1 <= min_items <= max_items")
        if max_growth <= 1.0:
            raise ValueError("max_growth must exceed 1")
        if tail_factor is not None and tail_factor <= 1.0:
            raise ValueError("tail_factor must exceed 1")
        self.target_seconds = target_seconds
        self.probe_items = max(min_items, probe_items)
        self.min_items = min_items
        self.max_items = max_items
        self.alpha = alpha
        self.max_growth = max_growth
        self.tail_factor = tail_factor
        self.warm_start = warm_start

    def items_for(
        self, donor: DonorState, problem_id: int, remaining: int | None = None
    ) -> int:
        model = donor.perf_for(problem_id, alpha=self.alpha)
        if not model.calibrated:
            items = self.probe_items
            capacity = donor.capacity_rate() if self.warm_start else 0.0
            if capacity > 0.0:
                ideal = min(float(self.max_items), capacity * self.target_seconds)
                ramp_cap = self.probe_items * self.max_growth
                items = int(
                    min(
                        self.max_items,
                        ramp_cap,
                        max(float(items), math.ceil(ideal)),
                    )
                )
        else:
            # Clamp before ceil(): an extreme rate estimate must saturate
            # at max_items, not overflow.
            ideal = min(
                float(self.max_items), model.items_per_second * self.target_seconds
            )
            ramp_cap = max(self.probe_items, model.last_items) * self.max_growth
            items = int(
                min(self.max_items, ramp_cap, max(self.min_items, math.ceil(ideal)))
            )
        if self.tail_factor is not None and remaining is not None and remaining > 0:
            # Mid-problem the cap is far above any sane unit; it only
            # binds once the target-time unit would swallow the tail.
            tail_cap = max(self.min_items, math.ceil(remaining / self.tail_factor))
            items = min(items, tail_cap)
        return items


class ProblemRoundRobin:
    """Fair rotation over concurrently active problems.

    The paper's server processes several problems simultaneously (six
    DPRml instances in Fig. 2).  Donors asking for work are offered each
    active problem in turn, starting after the problem served last, so
    one problem with abundant units cannot starve the others.  Priority
    classes are respected: all problems of the lowest priority number
    are rotated before any higher number is considered.
    """

    def __init__(self) -> None:
        self._last_served: int | None = None

    def order(self, problems: list[tuple[int, int]]) -> list[int]:
        """Rank candidate problems.

        Parameters
        ----------
        problems:
            ``(problem_id, priority)`` pairs for every problem that
            currently has (or may have) work.

        Returns
        -------
        Problem ids in the order they should be offered work.
        """
        if not problems:
            return []
        by_priority = sorted(problems, key=lambda pp: (pp[1], pp[0]))
        ids = [pid for pid, _prio in by_priority]
        if self._last_served in ids:
            pivot = ids.index(self._last_served) + 1
            # Rotate only within the leading priority class.
            lead_priority = by_priority[0][1]
            lead = [pid for pid, prio in by_priority if prio == lead_priority]
            rest = [pid for pid, prio in by_priority if prio != lead_priority]
            if self._last_served in lead:
                pivot = lead.index(self._last_served) + 1
                lead = lead[pivot:] + lead[:pivot]
            ids = lead + rest
        return ids

    def served(self, problem_id: int) -> None:
        self._last_served = problem_id

    def completed(self, problem_id: int, items: int) -> None:
        """Dispatch-policy hook: *items* of this problem were folded.

        Round robin keeps no delivered-work account; fair-share
        policies (:class:`repro.core.gateway.WeightedFairShare`)
        override this to charge the problem's tenant.
        """
