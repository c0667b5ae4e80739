"""Server checkpointing.

The paper's deployment "has been running for over 3 years"; a server
that cannot survive its own restart would lose days of donor work.
The checkpoint captures each problem's DataManager (which holds all
assembled partial results), its requeue and counters — everything
needed to resume issuing units.  Outstanding leases are deliberately
*not* persisted: after a restart their donors are gone, so the units
would only expire; instead they are requeued immediately on restore.

Version 2 additionally persists the integrity layer: the per-donor
reputation ledger (a restarted server must not forget who lied to it)
and each problem's in-flight quorum votes, so replicated units resume
collecting the votes they still need instead of recomputing from
scratch.

Version 3 records ``journal_lsn``: the last write-ahead journal record
(:mod:`repro.core.journal`) this snapshot covers.  Recovery restores
the checkpoint, then replays only journal records past that LSN, and
compaction may delete any segment the checkpoint fully covers.

Version 4 adds the job gateway (:mod:`repro.core.gateway`): tenant
definitions, per-tenant counters, and every job — including *queued*
jobs, whose pristine pickled Problems ride inside the blob so a crash
cannot lose admitted-but-unstarted work.  Version 3 files fail loudly
(the gateway state they lack cannot be invented).

Format: one pickled :class:`CheckpointBlob` per file, with a magic
header and version so a stale or foreign file fails loudly.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.integrity import DonorReputation, _UnitIntegrity
from repro.core.journal import fsync_dir
from repro.core.server import ProblemStatus, TaskFarmServer, _ProblemState
from repro.core.workunit import WorkUnit

MAGIC = b"TFCK"
VERSION = 4


@dataclass
class _ProblemSnapshot:
    problem: Any  # the whole Problem (DataManager carries the state)
    status: str
    submitted_at: float
    completed_at: float | None
    next_unit_id: int
    units_issued: int
    units_completed: int
    items_completed: int
    completed_units: set[int]
    requeued_units: list[WorkUnit]
    failure_reason: str | None = None
    # unit_id -> quorum-vote state for replicated units still in flight.
    voting: dict[int, _UnitIntegrity] = field(default_factory=dict)


@dataclass
class CheckpointBlob:
    version: int
    saved_at: float
    snapshots: list[_ProblemSnapshot]
    reputations: dict[str, DonorReputation] = field(default_factory=dict)
    # Last journal LSN this snapshot covers (0 = no journal in use).
    journal_lsn: int = 0
    # Job-gateway snapshot (JobGateway.dump(); None = no gateway).
    gateway: Any = None


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, foreign, or from another version."""


def dumps_checkpoint(
    server: TaskFarmServer, now: float, journal_lsn: int = 0, gateway=None
) -> bytes:
    """Serialize the server's problem state to checkpoint bytes.

    When the server journals, pass the writer's ``last_lsn`` taken at
    the same quiescent point this dump runs (the sim checkpoints
    synchronously; the live facade holds its lock), so the snapshot and
    the LSN describe the same state.  Pass the server's
    :class:`~repro.core.gateway.JobGateway` (when one is installed) so
    tenants and queued jobs ride in the same snapshot.
    """
    snapshots = []
    for state in server._problems.values():
        # Units currently leased (or queued as verification replicas)
        # would be lost on restore; fold one copy of each distinct unit
        # into the requeue so the snapshot is self-contained.  Replica
        # multiplicity is *not* persisted — the restore rebuilds exactly
        # the supply each unit's surviving vote requirement still needs.
        units: dict[int, WorkUnit] = {}
        for unit in state.requeue:
            units.setdefault(unit.unit_id, unit)
        for unit in state.replicas:
            units.setdefault(unit.unit_id, unit)
        for lease in server.leases.outstanding(state.problem.problem_id):
            units.setdefault(lease.unit.unit_id, lease.unit)
        snapshots.append(
            _ProblemSnapshot(
                problem=state.problem,
                status=state.status.value,
                submitted_at=state.submitted_at,
                completed_at=state.completed_at,
                next_unit_id=state.next_unit_id,
                units_issued=state.units_issued,
                units_completed=state.units_completed,
                items_completed=state.items_completed,
                completed_units=set(state.completed_units),
                requeued_units=list(units.values()),
                failure_reason=server.failure_reason(state.problem.problem_id),
                voting=dict(state.voting),
            )
        )
    blob = CheckpointBlob(
        version=VERSION,
        saved_at=now,
        snapshots=snapshots,
        reputations=server.reputation.dump(),
        journal_lsn=journal_lsn,
        gateway=gateway.dump() if gateway is not None else None,
    )
    return MAGIC + pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)


def save_checkpoint(
    server: TaskFarmServer,
    path: str | Path,
    now: float,
    journal_lsn: int = 0,
    gateway=None,
) -> None:
    """Write the server's problem state to *path* atomically and
    durably (arguments as for :func:`dumps_checkpoint`).

    The bytes are fsynced under a temporary name, renamed into place
    and the rename made durable by a directory fsync, so once this
    returns a power cut leaves either this checkpoint or none — and the
    journal segments it covers may be deleted.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(dumps_checkpoint(server, now, journal_lsn, gateway))
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    fsync_dir(path.parent)


def parse_checkpoint(raw: bytes, origin: str = "checkpoint") -> CheckpointBlob:
    """Decode checkpoint bytes; fail loudly on foreign or stale files."""
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{origin} is not a task-farm checkpoint")
    try:
        blob: CheckpointBlob = pickle.loads(raw[len(MAGIC):])
    except Exception as exc:
        raise CheckpointError(f"{origin}: cannot decode checkpoint: {exc}") from exc
    if blob.version != VERSION:
        raise CheckpointError(
            f"{origin}: checkpoint version {blob.version}, expected {VERSION}"
        )
    return blob


def loads_checkpoint(
    raw: bytes, server: TaskFarmServer, now: float, origin: str = "checkpoint"
) -> list[int]:
    """Restore problems from checkpoint bytes into a fresh server.

    Returns the restored problem ids.  The target server must not
    already hold any of them.
    """
    return restore_checkpoint(parse_checkpoint(raw, origin), server, now)


def restore_checkpoint(
    blob: CheckpointBlob, server: TaskFarmServer, now: float
) -> list[int]:
    """Apply an already-parsed :class:`CheckpointBlob` to *server*."""
    server.reputation.restore(blob.reputations)
    server._g_quarantined.set(len(server.reputation.quarantined_ids()))
    restored = []
    for snap in blob.snapshots:
        pid = snap.problem.problem_id
        if pid in server._problems:
            raise CheckpointError(f"problem {pid} already present in server")
        state = _ProblemState(snap.problem, snap.submitted_at)
        state.status = ProblemStatus(snap.status)
        state.completed_at = snap.completed_at
        state.next_unit_id = snap.next_unit_id
        state.units_issued = snap.units_issued
        state.units_completed = snap.units_completed
        state.items_completed = snap.items_completed
        state.completed_units = set(snap.completed_units)
        state.requeue.extend(snap.requeued_units)
        state.voting = dict(snap.voting)
        # The dump folds every leased or queued unit into the requeue,
        # so folded plus requeued items are all the items cut.
        unfinished = {
            u.unit_id: u.items
            for u in snap.requeued_units
            if u.unit_id not in state.completed_units
        }
        state.items_cut = snap.items_completed + sum(unfinished.values())
        server._problems[pid] = state
        if state.status is ProblemStatus.RUNNING:
            server._running[pid] = None
        if snap.failure_reason is not None:
            server._failures[pid] = snap.failure_reason
        server._rebalance_votes(state, now, reason="restore")
        restored.append(pid)
    return restored


def load_checkpoint(
    path: str | Path, server: TaskFarmServer, now: float
) -> list[int]:
    """Restore problems from a checkpoint file (see :func:`loads_checkpoint`)."""
    path = Path(path)
    return loads_checkpoint(path.read_bytes(), server, now, origin=str(path))
