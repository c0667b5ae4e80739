"""Operator-facing status reports.

The original system ran unattended for years; the first question an
operator asks a long-running farm is "what is it doing right now?".
This module renders a point-in-time snapshot of a
:class:`~repro.core.server.TaskFarmServer` — problems, progress,
donors, throughput — as plain text (servable over RMI, printable from
a cron job).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.server import ProblemStatus, TaskFarmServer


@dataclass(frozen=True, slots=True)
class ProblemStatusLine:
    problem_id: int
    name: str
    status: str
    progress: float
    units_completed: int
    units_in_flight: int
    units_requeued: int


@dataclass(frozen=True, slots=True)
class DonorStatusLine:
    donor_id: str
    units_completed: int
    items_completed: int
    busy_seconds: float
    active: bool
    idle_seconds: float
    items_per_second: float = 0.0
    utilization: float = 0.0
    slots: int = 1


@dataclass(frozen=True, slots=True)
class FarmStatus:
    """A point-in-time snapshot of the whole farm."""

    time: float
    problems: list[ProblemStatusLine]
    donors: list[DonorStatusLine]

    @property
    def active_donors(self) -> int:
        return sum(1 for d in self.donors if d.active)

    @property
    def running_problems(self) -> int:
        return sum(1 for p in self.problems if p.status == "running")

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"task farm status @ t={self.time:.1f}: "
            f"{self.running_problems} running problem(s), "
            f"{len(self.donors)} donor(s) ({self.active_donors} busy)",
            "",
            f"{'id':>4} {'problem':<18} {'status':<9} {'progress':>9} "
            f"{'done':>6} {'flight':>7} {'requeued':>9}",
        ]
        for p in self.problems:
            lines.append(
                f"{p.problem_id:>4} {p.name:<18.18} {p.status:<9} "
                f"{p.progress:>8.1%} {p.units_completed:>6} "
                f"{p.units_in_flight:>7} {p.units_requeued:>9}"
            )
        lines.append("")
        lines.append(
            f"{'donor':<18} {'slots':>5} {'units':>6} {'items':>8} "
            f"{'busy(s)':>9} {'items/s':>8} {'util':>6} {'state':<6}"
        )
        for d in self.donors:
            state = "busy" if d.active else f"idle {d.idle_seconds:.0f}s"
            rate = f"{d.items_per_second:.2f}" if d.items_per_second else "-"
            lines.append(
                f"{d.donor_id:<18.18} {d.slots:>5} {d.units_completed:>6} "
                f"{d.items_completed:>8} {d.busy_seconds:>9.1f} "
                f"{rate:>8} {d.utilization:>6.0%} {state:<6}"
            )
        return "\n".join(lines)


def snapshot(server: TaskFarmServer, now: float) -> FarmStatus:
    """Build a :class:`FarmStatus` from a server (read-only)."""
    problems = []
    for pid, state in sorted(server._problems.items()):
        in_flight, _items = server.leases.in_flight(pid)
        requeued = len(state.requeue)
        problems.append(
            ProblemStatusLine(
                problem_id=pid,
                name=state.problem.name,
                status=state.status.value,
                progress=(
                    1.0
                    if state.status is ProblemStatus.COMPLETE
                    else server.progress(pid)
                ),
                units_completed=state.units_completed,
                units_in_flight=in_flight,
                units_requeued=requeued,
            )
        )
    donors = []
    for donor_id in server.donor_ids():
        donor = server.donor_state(donor_id)
        rates = [
            m.items_per_second for m in donor.perf.values() if m.calibrated
        ]
        span = now - donor.registered_at
        if span <= 0:
            utilization = 1.0 if donor.busy_seconds > 0 else 0.0
        else:
            utilization = min(1.0, donor.busy_seconds / span)
        donors.append(
            DonorStatusLine(
                donor_id=donor_id,
                units_completed=donor.units_completed,
                items_completed=donor.items_completed,
                busy_seconds=donor.busy_seconds,
                active=donor.active_unit is not None,
                idle_seconds=max(0.0, now - donor.last_seen),
                items_per_second=sum(rates) / len(rates) if rates else 0.0,
                utilization=utilization,
                slots=donor.slots,
            )
        )
    return FarmStatus(time=now, problems=problems, donors=donors)


def render_status(server: TaskFarmServer, now: float) -> str:
    """One-call convenience: snapshot and render."""
    return snapshot(server, now).render()


def snapshot_dict(server: TaskFarmServer, now: float, gateway=None) -> dict:
    """A JSON-able mid-run snapshot: farm status + streaming meters.

    This is what the status CLI consumes — over RMI from a live
    deployment, or directly from a paused :class:`SimCluster` — and
    what the benchmarks dump alongside their reports.  Pass the
    server's :class:`~repro.core.gateway.JobGateway` (when one runs) to
    include the per-tenant section.
    """
    status = snapshot(server, now)
    reputations = server.reputation.snapshot()
    out: dict = {
        "time": status.time,
        "problems": [
            {
                "problem_id": p.problem_id,
                "name": p.name,
                "status": p.status,
                "progress": p.progress,
                "units_completed": p.units_completed,
                "units_in_flight": p.units_in_flight,
                "units_requeued": p.units_requeued,
            }
            for p in status.problems
        ],
        "donors": [
            {
                "donor_id": d.donor_id,
                "units_completed": d.units_completed,
                "items_completed": d.items_completed,
                "busy_seconds": d.busy_seconds,
                "active": d.active,
                "idle_seconds": d.idle_seconds,
                "items_per_second": d.items_per_second,
                "utilization": d.utilization,
                "slots": d.slots,
            }
            for d in status.donors
        ],
        "meters": server.obs.meters.snapshot(),
        "traces": {
            "open_spans": server.obs.tracer.open_count,
            "finished_spans": server.obs.tracer.finished_count,
        },
    }
    if reputations or server.integrity.active:
        out["integrity"] = {
            "policy": {
                "replication": server.integrity.replication,
                "quorum": server.integrity.quorum,
                "spot_check_rate": server.integrity.spot_check_rate,
            },
            "reputations": reputations,
            "quarantined": server.reputation.quarantined_ids(),
        }
    if gateway is not None:
        out["gateway"] = gateway.snapshot()
    return out
