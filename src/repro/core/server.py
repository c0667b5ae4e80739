"""The task-farm server: problem lifecycle, unit issue, result assembly.

This is the state-machine heart of the system.  It deliberately has **no
clock and no threads**: every public method takes ``now`` as an
argument and the caller supplies the time base.  The live cluster wraps
it with wall-clock time behind an RMI facade
(:mod:`repro.cluster.local`), while the discrete-event simulator drives
the *identical* scheduling logic under virtual time
(:mod:`repro.cluster.sim`) — so the speedup curves measured in
simulation are produced by the same code a real deployment runs.

Work is **pulled** by donors (cycle scavenging: a donor asks when it is
idle), matching the paper's client-initiated design.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.blobs import iter_blob_refs
from repro.core.faults import Lease, LeaseTable
from repro.core.integrity import (
    IntegrityPolicy,
    ReputationLedger,
    ReputationState,
    Vote,
    _UnitIntegrity,
    canonical_digest,
)
from repro.core.problem import Algorithm, Problem
from repro.core.scheduler import (
    AdaptiveGranularity,
    DonorState,
    GranularityPolicy,
    ProblemRoundRobin,
)
from repro.core.workunit import UnitStatus, WorkResult, WorkUnit
from repro.obs import ITEMS_BUCKETS, LATENCY_BUCKETS, Counter, Observability
from repro.obs.trace import Span


class ProblemStatus(enum.Enum):
    RUNNING = "running"
    COMPLETE = "complete"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: The journal record of each way a problem ends.
END_RECORDS = {
    ProblemStatus.COMPLETE: "problem.completed",
    ProblemStatus.FAILED: "problem.failed",
    ProblemStatus.CANCELLED: "problem.cancelled",
}


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Knobs of the pipelined donor runtime.

    Parameters
    ----------
    lease_depth:
        Maximum units a single donor may hold live leases on at once.
        ``None`` (the default) keeps the historical unlimited behaviour;
        a prefetching donor needs 2 (one computing, one in flight).
        Requests beyond the depth are refused (and metered), so a fast
        donor cannot hoard the tail of a problem in its prefetch queue.
    tail_reissue:
        When True and a donor asks for work but no fresh/requeued unit
        exists, the server speculatively re-dispatches the oldest
        in-flight unit of a problem that is down to its last
        ``tail_window`` units — a straggler on a slow donor no longer
        stalls the stage barrier.  The existing exactly-once folding
        accepts whichever copy lands first and drops the rest.
    tail_window:
        Re-issue only when at most this many distinct units are in
        flight for the problem (the "tail" definition).
    max_holders:
        Never lease one unit to more than this many donors at once
        (original + speculative copies), bounding duplicated work.
    """

    lease_depth: int | None = None
    tail_reissue: bool = False
    tail_window: int = 4
    max_holders: int = 2

    def __post_init__(self) -> None:
        if self.lease_depth is not None and self.lease_depth < 1:
            raise ValueError("lease_depth must be >= 1 (or None for unlimited)")
        if self.tail_window < 1:
            raise ValueError("tail_window must be >= 1")
        if self.max_holders < 2:
            raise ValueError("max_holders must be >= 2")

    @classmethod
    def pipelined(cls, depth: int = 2) -> "PipelineConfig":
        """The standard pipelined runtime: prefetch depth + tail re-issue."""
        return cls(lease_depth=depth, tail_reissue=True)

    def depth_for(self, slots: int) -> int | None:
        """Lease-depth gate for a donor advertising ``slots`` cores.

        ``lease_depth`` is *per slot*: a depth-2 pipeline on a 4-core
        pooled donor allows 8 concurrent leases (four computing, four
        prefetching), so capacity scheduling falls out of the existing
        depth machinery instead of a second code path.  ``None`` stays
        unlimited.
        """
        if self.lease_depth is None:
            return None
        return self.lease_depth * max(1, slots)


@dataclass(frozen=True, slots=True)
class Assignment:
    """One unit as handed to a donor.

    ``input_bytes`` is the wire cost charged for this delivery: the
    inline payload plus any shared blobs this donor receives for the
    first time.  ``inline_bytes`` is the blob-free part alone (equal to
    ``input_bytes`` for payloads without references); the simulator
    uses the split to model inline and blob transfers separately.
    """

    problem_id: int
    unit_id: int
    payload: Any
    items: int
    input_bytes: int
    cost_hint: float
    lease_deadline: float
    inline_bytes: int = -1


class _ProblemState:
    """Server-private bookkeeping for one submitted problem."""

    __slots__ = (
        "problem",
        "status",
        "submitted_at",
        "completed_at",
        "requeue",
        "replicas",
        "voting",
        "next_unit_id",
        "units_issued",
        "units_completed",
        "items_completed",
        "items_cut",
        "completed_units",
    )

    def __init__(self, problem: Problem, now: float):
        self.problem = problem
        self.status = ProblemStatus.RUNNING
        self.submitted_at = now
        self.completed_at: float | None = None
        self.requeue: deque[WorkUnit] = deque()
        # Redundant copies awaiting a verifying donor (integrity layer);
        # kept apart from ``requeue`` so recovery work (lost units) is
        # always served before extra verification work.
        self.replicas: deque[WorkUnit] = deque()
        # unit_id -> voting state for units needing >1 matching result.
        self.voting: dict[int, _UnitIntegrity] = {}
        self.next_unit_id = 0
        self.units_issued = 0
        self.units_completed = 0
        self.items_completed = 0
        # Items of every unit cut and not dropped: folded, leased,
        # queued or voting.  Ending the problem drops its unfinished
        # units, leaving the folded items.
        self.items_cut = 0
        self.completed_units: set[int] = set()


class TaskFarmServer:
    """Pure scheduling state machine for the task farm.

    Parameters
    ----------
    policy:
        Unit-sizing policy; defaults to the paper's adaptive
        granularity control.
    lease_timeout:
        Seconds a donor may hold a unit before it is requeued.
    obs:
        Streaming meters + tracer (:class:`~repro.obs.Observability`);
        a private bundle is created when omitted.  Counters are updated
        at the program points that journal each decision, so at the end
        of a run ``farm.units.completed`` and ``farm.items.completed``
        equal the journal's ``unit.fold`` records and their items.
    """

    def __init__(
        self,
        policy: GranularityPolicy | None = None,
        lease_timeout: float = 300.0,
        max_unit_attempts: int = 5,
        obs: Observability | None = None,
        integrity: IntegrityPolicy | None = None,
        pipeline: PipelineConfig | None = None,
        journal=None,
        dispatch=None,
    ):
        if max_unit_attempts < 1:
            raise ValueError("max_unit_attempts must be >= 1")
        self.policy = policy or AdaptiveGranularity()
        # Pluggable write-ahead sink (repro.core.journal.JournalWriter):
        # every durable mutation is appended before the caller is
        # acknowledged; None runs the historical in-memory-only mode.
        self.journal = journal
        self.leases = LeaseTable(lease_timeout)
        self.max_unit_attempts = max_unit_attempts
        self.integrity = integrity or IntegrityPolicy()
        self.pipeline = pipeline or PipelineConfig()
        self.reputation = ReputationLedger()
        self._problems: dict[int, _ProblemState] = {}
        # Ids of the RUNNING problems in submit order, kept where a
        # problem starts and ends, so dispatch never walks finished ones.
        self._running: dict[int, None] = {}
        self._donors: dict[str, DonorState] = {}
        # Donors holding at least one unit, kept where ``active_units``
        # turns empty or non-empty.
        self._busy_donors = 0
        # Cross-problem dispatch policy (order/served/completed).  The
        # default round robin reproduces the paper; the job gateway
        # (:mod:`repro.core.gateway`) swaps in weighted fair share.
        self.dispatch = dispatch or ProblemRoundRobin()
        self._failures: dict[int, str] = {}
        self._problem_spans: dict[int, Span] = {}
        self._unit_spans: dict[tuple[int, int], Span] = {}
        # Which blob keys each donor has already been charged for.
        # Keyed by donor, not (donor, problem): content addressing makes
        # equal data identical across problems, so a donor that cached
        # the database for one search never pays for it again.  Not
        # checkpointed — a restarted server conservatively re-charges.
        self._delivered_blobs: dict[str, set[str]] = {}
        self._bind_obs(obs or Observability())

    def _bind_obs(self, obs: Observability) -> None:
        """Send every meter, span and :attr:`obs` lookup to *obs*.

        Journal replay runs the live transitions against a scratch
        bundle and then binds the real one back, so work done before a
        crash is never counted twice.
        """
        self.obs = obs
        meters = obs.meters
        self._m_units_issued = meters.counter("farm.units.issued")
        self._m_units_completed = meters.counter("farm.units.completed")
        self._m_units_requeued = meters.counter("farm.units.requeued")
        self._m_units_duplicate = meters.counter("farm.units.duplicate")
        self._m_units_stale = meters.counter("farm.units.stale")
        self._m_units_failed = meters.counter("farm.units.failed")
        self._m_items_completed = meters.counter("farm.items.completed")
        self._m_bytes_in = meters.counter("farm.bytes.in")
        self._m_bytes_out = meters.counter("farm.bytes.out")
        self._m_leases_expired = meters.counter("farm.leases.expired")
        self._m_problems_submitted = meters.counter("farm.problems.submitted")
        self._m_problems_ended = {
            ProblemStatus.COMPLETE: meters.counter("farm.problems.completed"),
            ProblemStatus.FAILED: meters.counter("farm.problems.failed"),
            ProblemStatus.CANCELLED: meters.counter("farm.problems.cancelled"),
        }
        self._g_donors = meters.gauge("farm.donors.registered")
        self._g_donors_busy = meters.gauge("farm.donors.busy")
        self._g_problems_running = meters.gauge("farm.problems.running")
        self._h_unit_seconds = meters.histogram("farm.unit.seconds", LATENCY_BUCKETS)
        self._h_unit_items = meters.histogram("farm.unit.items", ITEMS_BUCKETS)
        self._m_redundant_units = meters.counter("farm.integrity.redundant_units")
        self._m_redundant_items = meters.counter("farm.integrity.redundant_items")
        self._m_agreements = meters.counter("farm.integrity.agreements")
        self._m_disagreements = meters.counter("farm.integrity.disagreements")
        self._m_spot_checks = meters.counter("farm.integrity.spot_checks")
        self._m_untrusted = meters.counter("farm.integrity.untrusted")
        self._m_quarantines = meters.counter("farm.integrity.quarantines")
        self._g_quarantined = meters.gauge("farm.integrity.quarantined")
        self._m_tail_reissues = meters.counter("farm.pipeline.tail.reissues")
        self._m_wasted_items = meters.counter("farm.pipeline.wasted.items")
        self._m_idle_polls = meters.counter("farm.pipeline.idle.polls")
        self._m_depth_refusals = meters.counter("farm.pipeline.depth.refusals")
        self._m_blob_refs = meters.counter("net.blob.refs")
        self._m_blob_deliveries = meters.counter("net.blob.deliveries")
        self._m_blob_bytes = meters.counter("net.blob.bytes")
        self._m_blob_saved = meters.counter("net.blob.bytes.saved")

    def _journal(self, kind: str, now: float, **fields: Any) -> None:
        """Append one durable-mutation record to the journal sink.

        Placed at exactly the program points that irreversibly change
        recoverable state; replay (:mod:`repro.core.journal`) applies
        these records — and nothing else — to rebuild the server.
        """
        if self.journal is not None:
            self.journal.append(kind, now, **fields)

    def _sync_donor_gauges(self) -> None:
        self._g_donors.set(len(self._donors))
        self._g_donors_busy.set(self._busy_donors)

    def _end_donor_unit(
        self, donor: DonorState, problem_id: int, unit_id: int
    ) -> None:
        if donor.end_unit(problem_id, unit_id):
            self._busy_donors -= 1

    # ------------------------------------------------------------------
    # problem lifecycle
    # ------------------------------------------------------------------

    def submit(self, problem: Problem, now: float = 0.0) -> int:
        """Accept a problem; returns its id."""
        if problem.problem_id in self._problems:
            raise ValueError(f"problem {problem.problem_id} already submitted")
        # Journaled before any unit is cut, so the pickled DataManager
        # is pristine and replay re-cuts from the same starting state.
        self._journal("problem.submit", now, problem=problem)
        self._problems[problem.problem_id] = _ProblemState(problem, now)
        self._running[problem.problem_id] = None
        self._m_problems_submitted.inc()
        self._g_problems_running.set(len(self._running))
        self._problem_spans[problem.problem_id] = self.obs.tracer.start(
            "problem", now, problem_id=problem.problem_id, problem_name=problem.name
        )
        return problem.problem_id

    def status(self, problem_id: int) -> ProblemStatus:
        return self._state(problem_id).status

    def final_result(self, problem_id: int) -> Any:
        state = self._state(problem_id)
        if state.status is ProblemStatus.FAILED:
            raise RuntimeError(
                f"problem {problem_id} failed: {self._failures.get(problem_id)}"
            )
        if state.status is ProblemStatus.CANCELLED:
            raise RuntimeError(f"problem {problem_id} was cancelled")
        if state.status is not ProblemStatus.COMPLETE:
            raise RuntimeError(f"problem {problem_id} is not complete")
        return state.problem.data_manager.final_result()

    def progress(self, problem_id: int) -> float:
        state = self._state(problem_id)
        total = state.problem.data_manager.total_items()
        if total:
            return min(1.0, state.items_completed / total)
        return state.problem.data_manager.progress()

    def active_problem_ids(self) -> list[int]:
        return list(self._running)

    def all_complete(self) -> bool:
        return not self._running

    def makespan(self, problem_id: int) -> float:
        """Submit-to-complete time for a finished problem."""
        state = self._state(problem_id)
        if state.completed_at is None:
            raise RuntimeError(f"problem {problem_id} is not complete")
        return state.completed_at - state.submitted_at

    # ------------------------------------------------------------------
    # donor lifecycle
    # ------------------------------------------------------------------

    def register_donor(
        self, donor_id: str, now: float = 0.0, slots: int = 1
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if donor_id in self._donors:
            # A rebooted donor re-registering is normal churn, not an error.
            self.deregister_donor(donor_id, now)
        self._journal("donor.register", now, donor=donor_id, slots=slots)
        self._donors[donor_id] = DonorState(donor_id, now, now, slots=slots)
        self._sync_donor_gauges()

    def deregister_donor(self, donor_id: str, now: float = 0.0) -> None:
        """Remove a donor; any unit it held goes back on the queue."""
        donor = self._donors.pop(donor_id, None)
        if donor is None:
            return
        if donor.active_units:
            self._busy_donors -= 1
        self._journal("donor.deregister", now, donor=donor_id)
        for lease in self.leases.revoke_donor(donor_id):
            self._recover_unit(lease.unit, now, reason="donor-left")
        self._sync_donor_gauges()

    def heartbeat(self, donor_id: str, now: float) -> None:
        """Keep a slow donor's lease alive while it reports progress."""
        donor = self._donors.get(donor_id)
        if donor is None:
            return
        donor.last_seen = now
        # Renew every unit the donor holds: a pipelined donor's
        # prefetched unit must not be torn away while unit N computes.
        for pid, uid in donor.active_units:
            self.leases.renew(pid, uid, now, donor_id=donor_id)

    def donor_ids(self) -> list[str]:
        return sorted(self._donors)

    def donor_state(self, donor_id: str) -> DonorState:
        return self._donors[donor_id]

    # ------------------------------------------------------------------
    # the scheduling core: issue and collect units
    # ------------------------------------------------------------------

    def request_work(self, donor_id: str, now: float) -> Assignment | None:
        """A donor asks for its next unit; returns ``None`` when idle.

        Requeued units (casualties of churn or expiry) are reissued
        before new units are cut, so no work is ever stranded behind
        fresh partitioning.  With a ``lease_depth`` configured, a donor
        already holding that many live leases is refused; with
        ``tail_reissue``, a donor that would otherwise idle may receive
        a speculative copy of the oldest in-flight unit of a
        nearly-done problem.
        """
        donor = self._donors.get(donor_id)
        if donor is None:
            raise KeyError(f"unregistered donor {donor_id!r}")
        donor.last_seen = now
        if self.integrity.active and self.reputation.distrusted(donor_id):
            return None  # quarantined donors get no work

        # The lease table is authoritative: entries whose lease was
        # cancelled elsewhere (unit completed by another holder, a
        # dropped result) must not count against the donor forever.
        if donor.active_units:
            donor.active_units = [
                key
                for key in donor.active_units
                if donor_id in self.leases.holders(*key)
            ]
            if not donor.active_units:
                self._busy_donors -= 1
        depth = self.pipeline.depth_for(donor.slots)
        if depth is not None and len(donor.active_units) >= depth:
            self._m_depth_refusals.inc()
            return None

        candidates = [
            (pid, self._problems[pid].problem.priority) for pid in self._running
        ]
        order = self.dispatch.order(candidates)
        for pid in order:
            state = self._problems[pid]
            unit = self._take_unit(state, donor, now)
            if unit is None:
                continue
            if (
                self.integrity.active
                and unit.attempts == 0
                and unit.unit_id not in state.voting
            ):
                required = self.integrity.required_votes(
                    pid,
                    unit.unit_id,
                    self.reputation.suspicion(donor_id, self.integrity),
                )
                if required > 1:
                    self._require_votes(state, unit.unit_id, required, now)
                    if self.integrity.replication == 1:
                        self._m_spot_checks.inc()
            return self._grant(state, unit, donor, now)
        assignment = self._tail_reissue(order, donor, now)
        if assignment is not None:
            return assignment
        self._m_idle_polls.inc()
        return None

    def _grant(
        self,
        state: _ProblemState,
        unit: WorkUnit,
        donor: DonorState,
        now: float,
        reissue: bool = False,
    ) -> Assignment:
        """Lease *unit* to *donor* and package the Assignment."""
        pid = state.problem.problem_id
        donor_id = donor.donor_id
        # An issue is redundant when the unit already has a live
        # lease or a recorded vote — work beyond 1x replication.
        voting = state.voting.get(unit.unit_id)
        if len(self.leases.holders(pid, unit.unit_id)) + (
            len(voting.votes) if voting else 0
        ) > 0:
            self._m_redundant_units.inc()
            self._m_redundant_items.inc(unit.items)
        unit.status = UnitStatus.ISSUED
        unit.attempts += 1
        lease = self.leases.grant(unit, donor_id, now)
        if donor.start_unit(pid, unit.unit_id):
            self._busy_donors += 1
        state.units_issued += 1
        self.dispatch.served(pid)
        inline_bytes, wire_bytes = self._charge_delivery(donor_id, unit)
        self._m_units_issued.inc()
        if reissue:
            self._m_tail_reissues.inc()
        self._m_bytes_in.inc(wire_bytes)
        self._h_unit_items.observe(unit.items)
        self._sync_donor_gauges()
        if voting is not None:
            self._ensure_vote_supply(state, unit, now, reason="replication")
        if (pid, unit.unit_id) not in self._unit_spans:
            self._unit_spans[(pid, unit.unit_id)] = self.obs.tracer.start(
                "unit",
                now,
                parent=self._problem_spans.get(pid),
                problem_id=pid,
                unit_id=unit.unit_id,
                donor_id=donor_id,
                items=unit.items,
                attempt=unit.attempts,
            )
        return Assignment(
            problem_id=pid,
            unit_id=unit.unit_id,
            payload=unit.payload,
            items=unit.items,
            input_bytes=wire_bytes,
            cost_hint=unit.cost_hint,
            lease_deadline=lease.deadline,
            inline_bytes=inline_bytes,
        )

    def _tail_reissue(
        self, order: list[int], donor: DonorState, now: float
    ) -> Assignment | None:
        """Speculatively duplicate the oldest in-flight unit of a
        problem in its tail onto an otherwise idle donor.

        Only fires when no fresh or requeued unit exists anywhere (the
        caller's loop came up empty) and a problem is down to at most
        ``tail_window`` distinct in-flight units — a stage barrier held
        open by stragglers.  Voting units are excluded (their supply is
        managed by :meth:`_ensure_vote_supply`), as are units the donor
        already holds or voted on, and units already duplicated to
        ``max_holders`` donors.  Exactly-once folding makes the extra
        copy safe: the first result in wins, later ones are dropped.
        """
        if not self.pipeline.tail_reissue:
            return None
        for pid in order:
            state = self._problems[pid]
            stragglers = self.leases.earliest_per_unit(pid)
            if not stragglers or len(stragglers) > self.pipeline.tail_window:
                continue
            for lease in stragglers:
                unit = lease.unit
                if unit.unit_id in state.completed_units:
                    continue
                if unit.unit_id in state.voting:
                    continue
                if not self._eligible(state, unit.unit_id, donor.donor_id):
                    continue
                holders = self.leases.holders(pid, unit.unit_id)
                if len(holders) >= self.pipeline.max_holders:
                    continue
                return self._grant(state, unit, donor, now, reissue=True)
        return None

    def _charge_delivery(self, donor_id: str, unit: WorkUnit) -> tuple[int, int]:
        """Byte accounting for issuing *unit* to *donor_id*.

        Returns ``(inline_bytes, wire_bytes)``.  A payload without
        shared-blob references costs its declared ``input_bytes``,
        unchanged.  With references, every ref adds a fixed envelope
        cost, and each blob's content is charged only the first time
        this particular donor receives it — the whole point of the
        cache: ship the database once, then send references.
        """
        refs = iter_blob_refs(unit.payload)
        inline_bytes = unit.input_bytes
        if not refs:
            return inline_bytes, inline_bytes
        wire_bytes = inline_bytes
        delivered = self._delivered_blobs.setdefault(donor_id, set())
        for ref in refs:
            self._m_blob_refs.inc()
            if ref.key in delivered:
                self._m_blob_saved.inc(ref.size)
            else:
                delivered.add(ref.key)
                wire_bytes += ref.size
                self._m_blob_deliveries.inc()
                self._m_blob_bytes.inc(ref.size)
        return inline_bytes, wire_bytes

    def _refuse(
        self, result: WorkResult, now: float, counter: Counter
    ) -> Lease | None:
        """Count a result that will not be applied on *counter* and
        drop the submitting donor's lease, which is returned, so a
        depth-limited donor gets its slot back."""
        counter.inc()
        lease = self.leases.release(
            result.problem_id, result.unit_id, result.donor_id
        )
        donor = self._donors.get(result.donor_id)
        if donor is not None:
            self._end_donor_unit(donor, result.problem_id, result.unit_id)
            donor.last_seen = now
            self._sync_donor_gauges()
        return lease

    def _eligible(self, state: _ProblemState, unit_id: int, donor_id: str) -> bool:
        """May *donor_id* be issued (a copy of) this unit?

        A donor never sees the same unit twice: not while it holds a
        live lease on it, and not after it has voted on it — replicas
        must come from *independent* donors or quorum proves nothing.
        """
        pid = state.problem.problem_id
        if donor_id in self.leases.holders(pid, unit_id):
            return False
        voting = state.voting.get(unit_id)
        return voting is None or donor_id not in voting.voters()

    def _take_unit(
        self, state: _ProblemState, donor: DonorState, now: float
    ) -> WorkUnit | None:
        for queue in (state.requeue, state.replicas):
            for idx, unit in enumerate(queue):
                if self._eligible(state, unit.unit_id, donor.donor_id):
                    del queue[idx]
                    return unit
        max_items = self.policy.items_for(
            donor, state.problem.problem_id, remaining=self._remaining_items(state)
        )
        return self._cut_unit(state, max_items, now)

    def _cut_unit(
        self, state: _ProblemState, max_items: int, now: float
    ) -> WorkUnit | None:
        """Cut the problem's next fresh unit of at most *max_items*."""
        payload = state.problem.data_manager.next_unit(max_items)
        if payload is None:
            return None
        # Fresh cuts are journaled so the unit-id ↔ payload binding
        # survives a crash: replay cuts again with the recorded item
        # count in journal order, which the DataManager contract makes
        # yield the very same slice, and asserts the unit ids match.
        self._journal(
            "unit.cut",
            now,
            pid=state.problem.problem_id,
            uid=state.next_unit_id,
            items=payload.items,
        )
        unit = WorkUnit.from_payload(
            state.problem.problem_id, state.next_unit_id, payload
        )
        state.next_unit_id += 1
        state.items_cut += unit.items
        return unit

    @staticmethod
    def _remaining_items(state: _ProblemState) -> int | None:
        """Items not yet cut into units (None when the DataManager
        cannot count them); the policy's tail taper uses it to shrink
        units as a problem drains."""
        total = state.problem.data_manager.total_items()
        if not total:
            return None
        return max(0, total - state.items_cut)

    def submit_result(self, result: WorkResult, now: float) -> bool:
        """Apply a donor's result; returns False for duplicates/stale.

        Exactly-once semantics: a unit whose lease expired may produce
        two results (the late original and the reissue); the first to
        arrive is applied, later ones are counted and dropped.
        """
        state = self._problems.get(result.problem_id)
        if (
            state is None
            or state.status is not ProblemStatus.RUNNING
            # A unit id this server never cut: a torn-tail recovery
            # rolled history back past the cut while the result was in
            # flight.  Refuse it — the slice will be re-cut and earn a
            # fresh quorum; folding now would bypass verification.
            or result.unit_id >= state.next_unit_id
        ):
            self._refuse(result, now, self._m_units_stale)
            return False
        if result.unit_id in state.completed_units:
            self._refuse(result, now, self._m_units_duplicate)
            # The whole unit was computed twice and this copy lost the
            # race: its items are the price of speculation.
            self._m_wasted_items.inc(result.items)
            return False

        if self.integrity.active and self.reputation.distrusted(result.donor_id):
            # A quarantined donor's answer is refused outright — its
            # leases were revoked at quarantine time, but a result can
            # still be in flight when the verdict lands.
            lease = self._refuse(result, now, self._m_untrusted)
            if lease is not None:
                self._recover_unit(lease.unit, now, reason="donor-quarantined")
            return False

        lease = self.leases.release(
            result.problem_id, result.unit_id, result.donor_id
        )

        donor = self._donors.get(result.donor_id)
        if donor is not None:
            self._end_donor_unit(donor, result.problem_id, result.unit_id)
            donor.last_seen = now
            donor.units_completed += 1
            donor.items_completed += result.items
            donor.busy_seconds += result.compute_seconds
            donor.perf_for(result.problem_id).observe(
                result.items, result.compute_seconds
            )

        voting = state.voting.get(result.unit_id)
        if voting is None:
            # First-result-wins: the pre-replication contract, applied
            # verbatim when the unit needs a single vote.
            self._accept_result(state, result, now)
            return True

        if result.donor_id in voting.voters():
            self._m_units_duplicate.inc()
            return False
        self._cast_vote(voting, result, now)
        self._sync_donor_gauges()

        top_digest, top_count = voting.tally()  # type: ignore[misc]
        if top_count >= min(voting.required, self.integrity.quorum):
            winner = next(v for v in voting.votes if v.digest == top_digest)
            self._settle_votes(state, result.unit_id, voting, top_digest, now)
            self._accept_result(state, winner.result, now)
            return True

        if len(voting.votes) >= voting.required:
            # Every requested vote is in and none agree: someone lied
            # (or user code is nondeterministic).  Escalate — demand one
            # more independent opinion — until max_votes gives up.
            self._m_disagreements.inc()
            if len(voting.votes) >= self.integrity.max_votes:
                self._end_problem(
                    state,
                    ProblemStatus.FAILED,
                    now,
                    f"unit {result.unit_id}: no quorum after "
                    f"{len(voting.votes)} votes (nondeterministic or "
                    f"hostile results)",
                )
                return False
            self._require_votes(state, result.unit_id, len(voting.votes) + 1, now)
        unit = lease.unit if lease is not None else self._find_unit(
            state, result.unit_id
        )
        if unit is not None:
            self._ensure_vote_supply(state, unit, now, reason="await-quorum")
        return True

    def _require_votes(
        self, state: _ProblemState, unit_id: int, required: int, now: float
    ) -> None:
        """Demand *required* matching votes for a unit: the first demand
        opens its vote, a later one (after a disagreement) raises it."""
        voting = state.voting.get(unit_id)
        kind = "unit.voting.open" if voting is None else "unit.voting.require"
        pid = state.problem.problem_id
        self._journal(kind, now, pid=pid, uid=unit_id, required=required)
        if voting is None:
            state.voting[unit_id] = _UnitIntegrity(required=required)
        else:
            voting.required = required

    def _cast_vote(
        self, voting: _UnitIntegrity, result: WorkResult, now: float
    ) -> None:
        """Add one donor's result to a replicated unit's votes."""
        digest = canonical_digest(result.value)
        self._journal("unit.vote", now, result=result)
        voting.votes.append(Vote(result.donor_id, digest, result))

    def _accept_result(
        self, state: _ProblemState, result: WorkResult, now: float
    ) -> None:
        """Fold one accepted result into the problem — exactly once.

        Any other in-flight leases or queued copies of the unit are
        cancelled here; replicas that still arrive later hit the
        ``completed_units`` duplicate check.  Journal replay folds each
        ``unit.fold`` record through this same method.
        """
        # The fold is the journal's reason to exist: once appended (and
        # fsync'd) the result survives any crash after this line.
        self._journal("unit.fold", now, result=result)
        self.leases.release(result.problem_id, result.unit_id)
        self._drop_queued(state, result.unit_id)
        state.voting.pop(result.unit_id, None)

        unit_span = self._unit_spans.pop(
            (result.problem_id, result.unit_id), None
        )
        self.obs.tracer.event(
            "combine",
            now,
            parent=unit_span,
            problem_id=result.problem_id,
            unit_id=result.unit_id,
            items=result.items,
        )
        state.problem.data_manager.handle_result(result)
        state.completed_units.add(result.unit_id)
        state.units_completed += 1
        state.items_completed += result.items
        self.dispatch.completed(result.problem_id, result.items)
        self._m_units_completed.inc()
        self._m_items_completed.inc(result.items)
        self._m_bytes_out.inc(result.output_bytes)
        self._h_unit_seconds.observe(result.compute_seconds)
        self._fold_unit_meters(result)
        self._sync_donor_gauges()
        if unit_span is not None:
            self.obs.tracer.finish(
                unit_span, now, compute_seconds=result.compute_seconds
            )

        if state.problem.data_manager.is_complete():
            self._end_problem(state, ProblemStatus.COMPLETE, now)

    def _settle_votes(
        self,
        state: _ProblemState,
        unit_id: int,
        voting: _UnitIntegrity,
        winning_digest: bytes,
        now: float,
    ) -> None:
        """Credit/debit every voter's reputation once quorum is reached."""
        pid = state.problem.problem_id
        for vote in voting.votes:
            if vote.digest == winning_digest:
                self._rate(vote.donor_id, "agreements", now)
                self._m_agreements.inc()
            else:
                self._m_disagreements.inc()
                self._rate(vote.donor_id, "disagreements", now)

    def _rate(self, donor_id: str, field: str, now: float) -> None:
        """Count one reputation event (``agreements``, ``disagreements``,
        ``failures`` or ``expiries``); every kind but an agreement
        re-scores the donor."""
        self._journal("rep", now, donor=donor_id, field=field)
        rep = self.reputation.record(donor_id)
        setattr(rep, field, getattr(rep, field) + 1)
        if field != "agreements":
            self._update_reputation(donor_id, now)

    def _update_reputation(self, donor_id: str, now: float) -> None:
        """Re-score a donor; on quarantine/blacklist pull its work."""
        new_state = self.reputation.update_state(donor_id, self.integrity)
        if new_state not in (
            ReputationState.QUARANTINED,
            ReputationState.BLACKLISTED,
        ):
            return
        self._m_quarantines.inc()
        self._g_quarantined.set(len(self.reputation.quarantined_ids()))
        donor = self._donors.get(donor_id)
        if donor is not None and donor.active_units:
            donor.active_units.clear()
            self._busy_donors -= 1
        for lease in self.leases.revoke_donor(donor_id):
            self._recover_unit(lease.unit, now, reason="donor-quarantined")
        self._sync_donor_gauges()

    def _fold_unit_meters(self, result: WorkResult) -> None:
        """Fold donor-collected per-unit stats into the live counters.

        Donors report through ``WorkResult.extra["meters"]`` (see
        :mod:`repro.obs.unitstats`); only whitelisted ``farm.align.*``,
        ``farm.cache.*``, ``farm.pipeline.*``, and ``farm.pool.*``
        names with positive
        finite amounts are
        accepted, so a buggy or hostile donor cannot inflate the
        framework's own accounting (``farm.units.*`` etc.).  Called
        only after the duplicate/stale checks, which makes the folding
        exactly-once per unit.
        """
        meters = result.extra.get("meters") if result.extra else None
        if not isinstance(meters, dict):
            return
        accepted = sorted(
            name
            for name in meters
            if isinstance(name, str)
            and name.startswith(
                ("farm.align.", "farm.cache.", "farm.pipeline.", "farm.pool.")
            )
        )
        for name in accepted:
            amount = meters[name]
            if not isinstance(amount, (int, float)):
                continue
            amount = float(amount)
            if not math.isfinite(amount) or amount <= 0:
                continue
            self.obs.meters.counter(name).inc(amount)

    def report_failure(
        self, problem_id: int, unit_id: int, donor_id: str, error: str, now: float
    ) -> None:
        """A donor's Algorithm raised on this unit.

        Transient failures (flaky donor) are healed by requeueing; a
        *poison unit* that fails on every donor would otherwise cycle
        forever, so after ``max_unit_attempts`` total attempts the whole
        problem is marked FAILED and the error surfaced to the user —
        a deterministic bug in user code must stop the job, not eat the
        pool.
        """
        state = self._problems.get(problem_id)
        lease = self.leases.release(problem_id, unit_id, donor_id)
        donor = self._donors.get(donor_id)
        if donor is not None:
            self._end_donor_unit(donor, problem_id, unit_id)
            donor.last_seen = now
        if state is None or state.status is not ProblemStatus.RUNNING:
            return
        if unit_id in state.completed_units or lease is None:
            return
        unit = lease.unit
        self._m_units_failed.inc()
        self._sync_donor_gauges()
        if self.integrity.active:
            self._rate(donor_id, "failures", now)
            if state.status is not ProblemStatus.RUNNING:
                return  # quarantine fallout ended the problem meanwhile
        failed_span = self._unit_spans.pop((problem_id, unit_id), None)
        if failed_span is not None:
            self.obs.tracer.finish(failed_span, now, status="failed", error=error[:100])
        if unit.attempts >= self.max_unit_attempts:
            self._end_problem(
                state,
                ProblemStatus.FAILED,
                now,
                f"unit {unit_id} failed {unit.attempts} times; last error: {error}",
            )
        else:
            self._recover_unit(unit, now, reason="algorithm-error")

    def failure_reason(self, problem_id: int) -> str | None:
        """Why a FAILED problem failed (None otherwise)."""
        return self._failures.get(problem_id)

    def cancel_problem(self, problem_id: int, now: float = 0.0) -> bool:
        """Cancel a running problem; returns False when already ended.

        Every outstanding lease is released and the holding donor's
        slot freed (no leaked ``farm.donors.busy``); queued/voting
        state is dropped.  A donor that still reports a result for a
        cancelled unit hits the exactly-once stale path in
        :meth:`submit_result` — a clean ``False``, never an exception.
        """
        state = self._state(problem_id)
        if state.status is not ProblemStatus.RUNNING:
            return False
        self._end_problem(state, ProblemStatus.CANCELLED, now)
        return True

    def _end_problem(
        self,
        state: _ProblemState,
        status: ProblemStatus,
        now: float,
        reason: str | None = None,
    ) -> None:
        """The one way a running problem ends: complete, failed (with
        *reason*) or cancelled.

        Every outstanding lease is released and its donor's slot freed,
        queued and voting state is dropped, and open unit spans close.
        Journal replay ends a problem through this same method.
        """
        pid = state.problem.problem_id
        kind = END_RECORDS[status]
        failure = {} if reason is None else {"reason": reason}
        self._journal(kind, now, pid=pid, **failure)
        state.status = status
        state.completed_at = now
        del self._running[pid]
        if reason is not None:
            self._failures[pid] = reason
        for lease in self.leases.outstanding(pid):
            donor = self._donors.get(lease.donor_id)
            if donor is not None:
                self._end_donor_unit(donor, pid, lease.unit.unit_id)
            self.leases.release(pid, lease.unit.unit_id, lease.donor_id)
        self._close_unit_spans(pid, now, "cancelled")
        state.requeue.clear()
        state.replicas.clear()
        state.voting.clear()
        state.items_cut = state.items_completed
        if status is ProblemStatus.COMPLETE:
            span_attrs = {
                "units": state.units_completed,
                "items": state.items_completed,
            }
        elif reason is not None:
            span_attrs = {"status": "failed", "reason": reason[:100]}
        else:
            span_attrs = {"status": "cancelled"}
        self._m_problems_ended[status].inc()
        self._g_problems_running.set(len(self._running))
        self._sync_donor_gauges()
        span = self._problem_spans.pop(pid, None)
        if span is not None:
            self.obs.tracer.finish(span, now, **span_attrs)

    def expire_leases(self, now: float) -> int:
        """Requeue every unit whose lease has lapsed; returns the count."""
        expired = self.leases.expired(now)
        for lease in expired:
            donor = self._donors.get(lease.donor_id)
            if donor is not None:
                self._end_donor_unit(donor, lease.unit.problem_id, lease.unit.unit_id)
            if self.integrity.active:
                self._rate(lease.donor_id, "expiries", now)
            self._recover_unit(lease.unit, now, reason="lease-expired")
        if expired:
            self._m_leases_expired.inc(len(expired))
            self._sync_donor_gauges()
        return len(expired)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _requeue_unit(self, unit: WorkUnit, now: float, reason: str) -> None:
        state = self._problems.get(unit.problem_id)
        if state is None or state.status is not ProblemStatus.RUNNING:
            return
        if unit.unit_id in state.completed_units:
            return
        unit.status = UnitStatus.EXPIRED
        state.requeue.append(unit)
        self._m_units_requeued.inc()
        span = self._unit_spans.pop((unit.problem_id, unit.unit_id), None)
        if span is not None:
            self.obs.tracer.finish(span, now, status="requeued", reason=reason)

    def _close_unit_spans(self, problem_id: int, now: float, status: str) -> None:
        """Finish any still-open unit spans of a problem that just ended."""
        for key in [k for k in self._unit_spans if k[0] == problem_id]:
            self.obs.tracer.finish(self._unit_spans.pop(key), now, status=status)

    @staticmethod
    def _drop_queued(state: _ProblemState, unit_id: int) -> None:
        """Purge every queued copy of a unit from both queues."""
        for queue in (state.requeue, state.replicas):
            for queued in [u for u in queue if u.unit_id == unit_id]:
                queue.remove(queued)

    @staticmethod
    def _queued_copies(state: _ProblemState, unit_id: int) -> int:
        return sum(
            1
            for queue in (state.requeue, state.replicas)
            for u in queue
            if u.unit_id == unit_id
        )

    def _find_unit(self, state: _ProblemState, unit_id: int) -> WorkUnit | None:
        """Locate a live WorkUnit object for *unit_id* (queued or leased)."""
        for queue in (state.requeue, state.replicas):
            for unit in queue:
                if unit.unit_id == unit_id:
                    return unit
        lease = self.leases.any_lease(state.problem.problem_id, unit_id)
        return lease.unit if lease is not None else None

    def _recover_unit(self, unit: WorkUnit, now: float, reason: str) -> None:
        """A copy of *unit* was lost (expiry/churn/quarantine): restore
        exactly as much supply as its vote requirement still needs."""
        state = self._problems.get(unit.problem_id)
        if state is None or state.status is not ProblemStatus.RUNNING:
            return
        if unit.unit_id in state.completed_units:
            return
        if unit.unit_id in state.voting:
            self._ensure_vote_supply(state, unit, now, reason)
        else:
            self._requeue_unit(unit, now, reason)

    def _rebalance_votes(self, state: _ProblemState, now: float, reason: str) -> None:
        """Top queued copies up (or trim them down) to each replicated
        unit's remaining vote requirement — after a checkpoint restore
        or a journal replay, whose leases died with the old server."""
        if state.status is not ProblemStatus.RUNNING:
            return
        for unit_id in list(state.voting):
            unit = self._find_unit(state, unit_id)
            if unit is not None:
                self._ensure_vote_supply(state, unit, now, reason)

    def _ensure_vote_supply(
        self, state: _ProblemState, unit: WorkUnit, now: float, reason: str
    ) -> None:
        """Balance queued copies so votes + leases + queue == required.

        A deficit queues more copies (the first through the recovery
        requeue when the unit has no live supply at all, the rest as
        replicas); a surplus — e.g. a late vote landing after its
        expired copy was requeued — trims queued copies back.
        """
        voting = state.voting.get(unit.unit_id)
        if voting is None:
            return
        pid = state.problem.problem_id
        live = len(self.leases.holders(pid, unit.unit_id))
        votes = len(voting.votes)
        queued = self._queued_copies(state, unit.unit_id)
        deficit = voting.required - votes - live - queued
        while deficit < 0 and queued > 0:
            # Prefer trimming verification copies over recovery copies.
            trimmed = False
            for queue in (state.replicas, state.requeue):
                for candidate in queue:
                    if candidate.unit_id == unit.unit_id:
                        queue.remove(candidate)
                        deficit += 1
                        queued -= 1
                        trimmed = True
                        break
                if trimmed:
                    break
            if not trimmed:  # pragma: no cover - queued>0 guarantees a hit
                break
        for i in range(max(0, deficit)):
            if live + votes + queued == 0 and i == 0:
                # The unit vanished entirely: this is recovery, which
                # goes through the requeue path (and its meter).
                self._requeue_unit(unit, now, reason)
            else:
                state.replicas.append(unit)

    def _state(self, problem_id: int) -> _ProblemState:
        try:
            return self._problems[problem_id]
        except KeyError:
            raise KeyError(f"unknown problem {problem_id}") from None

    # ------------------------------------------------------------------
    # donor-facing fetch API (algorithm + blobs travel once per problem)
    # ------------------------------------------------------------------

    def get_algorithm(self, problem_id: int) -> Algorithm:
        """The Algorithm object donors cache for this problem."""
        return self._state(problem_id).problem.algorithm

    def get_blob(self, problem_id: int, key: str) -> bytes:
        return self._state(problem_id).problem.blobs[key]

    def blob_keys(self, problem_id: int) -> list[str]:
        return sorted(self._state(problem_id).problem.blobs)

    def get_shared_blob(self, problem_id: int, key: str) -> bytes:
        """Serialized bytes of a shared payload blob (cache-miss path)."""
        return self._state(problem_id).problem.data_manager.shared_blob(key)

    def shared_blob_keys(self, problem_id: int) -> list[str]:
        return self._state(problem_id).problem.data_manager.shared_blob_keys()
