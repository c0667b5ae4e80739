"""Lease tracking: the server's defence against donor churn.

Donor machines are ordinary desktops that reboot, sleep, or leave the
pool whenever their owners want them — the defining hazard of cycle
scavenging.  Every issued unit carries a lease; when the lease expires
(or the donor deregisters) the unit is requeued and reissued to another
donor.  A result for a unit whose lease moved on is detected and applied
at most once, so churn can never corrupt the assembled answer.

A unit may be leased to *several* donors at once: the integrity layer
(:mod:`repro.core.integrity`) issues replicated copies of a unit to
independent donors and accepts the result on quorum agreement.  The
table therefore keys leases by ``(problem_id, unit_id, donor_id)``;
granting the *same* unit to the *same* donor twice is still an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.workunit import WorkUnit


@dataclass(slots=True)
class Lease:
    """One outstanding unit assignment."""

    unit: WorkUnit
    donor_id: str
    issued_at: float
    deadline: float


class LeaseTable:
    """Tracks issued units and finds the expired ones.

    Counts are kept at every grant and removal, so the size, each
    problem's in-flight work and the expiry sweep's early exit cost the
    same however many leases are live.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError("lease timeout must be positive")
        self.timeout = timeout
        # (problem_id, unit_id) -> donor_id -> Lease, insertion-ordered.
        self._leases: dict[tuple[int, int], dict[str, Lease]] = {}
        self._count = 0
        # problem_id -> [live leases, items they cover]; a problem's
        # entry goes with its last lease.
        self._in_flight: dict[int, list[int]] = {}
        # No live deadline is earlier than this.  Grants and renewals
        # lower it; removals leave it low until a sweep crosses it.
        self._earliest = math.inf

    def __len__(self) -> int:
        return self._count

    def grant(self, unit: WorkUnit, donor_id: str, now: float) -> Lease:
        key = (unit.problem_id, unit.unit_id)
        holders = self._leases.setdefault(key, {})
        if donor_id in holders:
            raise ValueError(f"unit {key} already leased to {donor_id!r}")
        lease = Lease(unit, donor_id, now, now + self.timeout)
        holders[donor_id] = lease
        self._count += 1
        flight = self._in_flight.get(unit.problem_id)
        if flight is None:
            self._in_flight[unit.problem_id] = [1, unit.items]
        else:
            flight[0] += 1
            flight[1] += unit.items
        if lease.deadline < self._earliest:
            self._earliest = lease.deadline
        return lease

    def _forget(self, lease: Lease) -> None:
        """Take a removed lease out of the counts."""
        self._count -= 1
        pid = lease.unit.problem_id
        flight = self._in_flight[pid]
        if flight[0] == 1:
            del self._in_flight[pid]
        else:
            flight[0] -= 1
            flight[1] -= lease.unit.items
        if not self._count:
            self._earliest = math.inf

    def in_flight(self, problem_id: int) -> tuple[int, int]:
        """``(live leases, items they cover)`` for *problem_id*; each
        replicated copy is real work and counts."""
        flight = self._in_flight.get(problem_id)
        return (flight[0], flight[1]) if flight is not None else (0, 0)

    def holder(self, problem_id: int, unit_id: int) -> str | None:
        """The earliest-issued live holder (None when unleased)."""
        holders = self._leases.get((problem_id, unit_id))
        if not holders:
            return None
        return next(iter(holders.values())).donor_id

    def holders(self, problem_id: int, unit_id: int) -> list[str]:
        """Every donor currently holding a lease on this unit."""
        return list(self._leases.get((problem_id, unit_id), ()))

    def any_lease(self, problem_id: int, unit_id: int) -> Lease | None:
        """Some live lease on this unit (None when unleased)."""
        holders = self._leases.get((problem_id, unit_id))
        if not holders:
            return None
        return next(iter(holders.values()))

    def release(
        self, problem_id: int, unit_id: int, donor_id: str | None = None
    ) -> Lease | None:
        """Remove and return a lease (result arrived), if still live.

        With *donor_id* only that donor's lease is released; without it,
        **every** lease on the unit is dropped and the earliest-issued
        one is returned (the pre-replication contract).
        """
        key = (problem_id, unit_id)
        holders = self._leases.get(key)
        if not holders:
            return None
        if donor_id is None:
            del self._leases[key]
            for lease in holders.values():
                self._forget(lease)
            return next(iter(holders.values()))
        lease = holders.pop(donor_id, None)
        if not holders:
            del self._leases[key]
        if lease is not None:
            self._forget(lease)
        return lease

    def renew(
        self,
        problem_id: int,
        unit_id: int,
        now: float,
        donor_id: str | None = None,
    ) -> bool:
        """Extend a live lease (donor heartbeat with progress).

        Without *donor_id* every lease on the unit is renewed — callers
        that know the donor should pass it so a heartbeat cannot keep a
        *replica* holder's lapsed lease alive.
        """
        holders = self._leases.get((problem_id, unit_id))
        if not holders:
            return False
        deadline = now + self.timeout
        if donor_id is None:
            for lease in holders.values():
                lease.deadline = deadline
        else:
            lease = holders.get(donor_id)
            if lease is None:
                return False
            lease.deadline = deadline
        # A renewal only moves a deadline later on a monotone clock;
        # lowering the bound keeps it valid on any other.
        if deadline < self._earliest:
            self._earliest = deadline
        return True

    def expired(self, now: float) -> list[Lease]:
        """Remove and return every lease whose deadline has passed.

        Returns at once while *now* is below the earliest-deadline
        bound; a sweep that crosses it rescans and tightens the bound.
        """
        if now < self._earliest:
            return []
        dead: list[Lease] = []
        earliest = math.inf
        for key in list(self._leases):
            holders = self._leases[key]
            for donor_id in list(holders):
                deadline = holders[donor_id].deadline
                if deadline <= now:
                    dead.append(holders.pop(donor_id))
                elif deadline < earliest:
                    earliest = deadline
            if not holders:
                del self._leases[key]
        for lease in dead:
            self._forget(lease)
        self._earliest = earliest
        return dead

    def revoke_donor(self, donor_id: str) -> list[Lease]:
        """Remove and return every lease held by *donor_id* (it left)."""
        dead: list[Lease] = []
        for key in list(self._leases):
            holders = self._leases[key]
            lease = holders.pop(donor_id, None)
            if lease is not None:
                dead.append(lease)
                self._forget(lease)
            if not holders:
                del self._leases[key]
        return dead

    def earliest_per_unit(self, problem_id: int) -> list[Lease]:
        """One lease per distinct in-flight unit of *problem_id* — the
        earliest-issued holder of each — ordered oldest first.

        This is the tail re-issue candidate list: when a problem is
        down to its last few in-flight units, the oldest one is the
        likeliest straggler and the best unit to duplicate onto an idle
        donor.
        """
        per_unit: list[Lease] = []
        for (pid, _uid), holders in self._leases.items():
            if pid != problem_id:
                continue
            per_unit.append(min(holders.values(), key=lambda l: l.issued_at))
        per_unit.sort(key=lambda l: (l.issued_at, l.unit.unit_id))
        return per_unit

    def outstanding(self, problem_id: int | None = None) -> list[Lease]:
        leases = [
            lease
            for holders in self._leases.values()
            for lease in holders.values()
        ]
        if problem_id is None:
            return leases
        return [l for l in leases if l.unit.problem_id == problem_id]
