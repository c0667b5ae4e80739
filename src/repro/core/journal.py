"""Write-ahead journal: durable server state, crash recovery, replay.

The checkpoint (:mod:`repro.core.checkpoint`) captures a point-in-time
snapshot; everything the server does *between* checkpoints used to live
only in memory, so a ``kill -9`` lost every result folded since the
last manual save.  This module closes that gap with a classic
write-ahead journal:

* every state mutation (problem submit, donor churn, fresh unit cut,
  quorum vote, accepted result fold, reputation delta, lifecycle
  change) is appended as one CRC32-framed, fsync'd record *before* the
  server acknowledges the call that caused it;
* segments rotate at a byte budget and are compacted away once a
  checkpoint (VERSION 3 records the journal LSN it covers) supersedes
  them;
* :func:`recover` rebuilds a fresh server from ``checkpoint +
  journal tail``, truncating a torn tail at the last valid frame
  (counted loudly via ``farm.journal.torn.truncated``) instead of
  crashing.

What is journaled vs. reconstructed
-----------------------------------
Only *irreversible* mutations are journaled.  Leases, grants, requeues
and heartbeats are deliberately not: after a crash their donors must
re-earn the units anyway, so recovery parks every cut-but-unfolded unit
on the requeue and lets the normal scheduling paths reissue it.  Fresh
cuts *are* journaled (``unit.cut``) because the unit-id ↔ payload
binding must survive: replay re-cuts by calling
``DataManager.next_unit(recorded_items)`` in journal order, which the
DataManager contract makes deterministic, and asserts the ids line up
— a divergence fails loudly rather than folding results into the wrong
slices.

Replay applies each record by running the very transition that wrote
it — a cut, vote, fold or reputation event through its
``TaskFarmServer`` method, a problem's end through ``_end_problem``, a
job submit, start or cancel through the gateway's own methods — so
each is written once.  During replay the server's
journal is off and its meters and spans are bound to scratch sinks, so
a recovered server's meters count only post-recovery work.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol

from repro.core.server import END_RECORDS, ProblemStatus, TaskFarmServer
from repro.obs import Observability

MAGIC = b"TFWJ"
SEGMENT_VERSION = 1
_HEADER = MAGIC + struct.pack("<I", SEGMENT_VERSION)
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
#: Reject frames whose length field claims more than this — a torn or
#: overwritten length would otherwise make the reader swallow garbage.
#: The writer refuses records over the same cap, so every frame it
#: writes is one the reader accepts.
_MAX_FRAME_BYTES = 64 * 1024 * 1024
DEFAULT_SEGMENT_BYTES = 256 * 1024
_END_STATUS = {kind: status for status, kind in END_RECORDS.items()}


class JournalError(RuntimeError):
    """The journal is corrupt somewhere other than its tail, or replay
    diverged from the recorded history."""


def _segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:012d}.log"


def _segment_first_lsn(name: str) -> int:
    try:
        return int(name[len("wal-"):-len(".log")])
    except ValueError as exc:
        raise JournalError(f"not a journal segment name: {name!r}") from exc


class SegmentStore(Protocol):
    """Byte-level storage for journal segments.

    Two implementations: :class:`DirStore` (real files, real fsync) for
    live deployments, and :class:`MemoryStore` so simulated recovery
    drills run the identical framing/truncation code on real bytes
    without touching disk.
    """

    def names(self) -> list[str]: ...
    def read(self, name: str) -> bytes: ...
    def create(self, name: str) -> None: ...
    def append(self, name: str, data: bytes) -> None: ...
    def sync(self, name: str) -> None: ...
    def truncate(self, name: str, size: int) -> None: ...
    def delete(self, name: str) -> None: ...


class MemoryStore:
    """In-memory segment store for simulated crash drills."""

    def __init__(self) -> None:
        self._segments: dict[str, bytearray] = {}

    def names(self) -> list[str]:
        return sorted(self._segments)

    def read(self, name: str) -> bytes:
        return bytes(self._segments[name])

    def create(self, name: str) -> None:
        self._segments[name] = bytearray()

    def append(self, name: str, data: bytes) -> None:
        self._segments[name] += data

    def sync(self, name: str) -> None:
        pass  # memory is "durable" for the drill's purposes

    def truncate(self, name: str, size: int) -> None:
        del self._segments[name][size:]

    def delete(self, name: str) -> None:
        self._segments.pop(name, None)


def fsync_dir(path: str | Path) -> None:
    """fsync a directory, making the names created, renamed or removed
    in it durable: a file's own fsync does not cover its directory
    entry, so without this a power cut can undo a create or a delete."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DirStore:
    """Filesystem segment store: one file per segment under *root*.

    Creating and deleting a segment fsync the directory, so the set of
    segment names survives a power cut and not only a killed process.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: dict[str, Any] = {}

    def names(self) -> list[str]:
        return sorted(p.name for p in self.root.glob("wal-*.log"))

    def read(self, name: str) -> bytes:
        return (self.root / name).read_bytes()

    def create(self, name: str) -> None:
        self._release(name)
        self._open[name] = open(self.root / name, "wb")
        fsync_dir(self.root)

    def append(self, name: str, data: bytes) -> None:
        handle = self._open.get(name)
        if handle is None:
            handle = open(self.root / name, "ab")
            self._open[name] = handle
        handle.write(data)

    def sync(self, name: str) -> None:
        handle = self._open.get(name)
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())

    def truncate(self, name: str, size: int) -> None:
        self._release(name)
        os.truncate(self.root / name, size)

    def delete(self, name: str) -> None:
        self._release(name)
        (self.root / name).unlink(missing_ok=True)
        fsync_dir(self.root)

    def close(self) -> None:
        for name in list(self._open):
            self._release(name)

    def _release(self, name: str) -> None:
        handle = self._open.pop(name, None)
        if handle is not None:
            handle.close()


class JournalWriter:
    """Appends CRC32-framed records, fsyncing each before returning.

    The fsync-per-append is the durability contract: by the time the
    server acknowledges a donor's call, every record that call produced
    is on stable storage, so a crash can only lose calls that were
    never acknowledged — which donors retry anyway.
    """

    def __init__(
        self,
        store: SegmentStore,
        start_lsn: int = 1,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        meters=None,
    ):
        if start_lsn < 1:
            raise ValueError("start_lsn must be >= 1")
        self.store = store
        self.next_lsn = start_lsn
        self.segment_bytes = segment_bytes
        self._segment: str | None = None
        self._segment_size = 0
        if meters is not None:
            self._m_records = meters.counter("farm.journal.records")
            self._m_bytes = meters.counter("farm.journal.bytes")
            self._m_fsyncs = meters.counter("farm.journal.fsyncs")
        else:
            self._m_records = self._m_bytes = self._m_fsyncs = None

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (``start_lsn - 1``
        when nothing has been written yet)."""
        return self.next_lsn - 1

    def append(self, kind: str, now: float, headroom: int = 0, **fields: Any) -> int:
        """Write and fsync one record; returns its LSN.

        Raises :class:`JournalError`, writing nothing, when the record
        would leave less than *headroom* bytes under the frame cap —
        the reader would reject it as corruption, losing an acked
        mutation.
        """
        record = {"lsn": self.next_lsn, "kind": kind, "now": now, **fields}
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        limit = _MAX_FRAME_BYTES - headroom
        if len(payload) > limit:
            raise JournalError(
                f"{kind} record of {len(payload):,} bytes exceeds the "
                f"journal's {limit:,}-byte frame cap"
            )
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if self._segment is None or self._segment_size >= self.segment_bytes:
            self._open_segment()
        self.store.append(self._segment, frame)
        self.store.sync(self._segment)
        self._segment_size += len(frame)
        self.next_lsn += 1
        if self._m_records is not None:
            self._m_records.inc()
            self._m_bytes.inc(len(frame))
            self._m_fsyncs.inc()
        return record["lsn"]

    def rotate(self) -> None:
        """Seal the active segment; the next append opens a fresh one.

        Called at checkpoint time so every segment before the rotation
        point is fully covered by the checkpoint and compactable.
        """
        self._segment = None
        self._segment_size = 0

    def _open_segment(self) -> None:
        # A leftover segment with this first-LSN can only be one that
        # recovery found to contain no valid frames (otherwise next_lsn
        # would be past it) — creating simply truncates it.
        self._segment = _segment_name(self.next_lsn)
        self.store.create(self._segment)
        self.store.append(self._segment, _HEADER)
        self.store.sync(self._segment)
        self._segment_size = len(_HEADER)


def compact(store: SegmentStore, upto_lsn: int) -> int:
    """Delete segments made redundant by a checkpoint covering
    *upto_lsn*; returns how many were removed.

    A segment is redundant when every record it holds has
    ``lsn <= upto_lsn`` — i.e. the *next* segment starts at or before
    ``upto_lsn + 1``.  The newest segment is always kept (it is, or
    will become, the active tail).
    """
    names = store.names()
    removed = 0
    for i, name in enumerate(names[:-1]):
        if _segment_first_lsn(names[i + 1]) <= upto_lsn + 1:
            store.delete(name)
            removed += 1
    return removed


def _scan_segment(data: bytes) -> tuple[list[dict], int, str | None]:
    """Parse one segment's frames.

    Returns ``(records, valid_end_offset, error)``; *error* is None for
    a clean segment, otherwise describes the first invalid byte run
    (the caller decides whether that means a torn tail or corruption).
    """
    if len(data) < len(_HEADER) or data[: len(MAGIC)] != MAGIC:
        return [], 0, "bad or truncated segment header"
    (version,) = struct.unpack_from("<I", data, len(MAGIC))
    if version != SEGMENT_VERSION:
        return [], 0, f"segment version {version}, expected {SEGMENT_VERSION}"
    records: list[dict] = []
    offset = len(_HEADER)
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return records, offset, "truncated frame header"
        length, crc = _FRAME.unpack_from(data, offset)
        if length == 0 or length > _MAX_FRAME_BYTES:
            return records, offset, f"implausible frame length {length}"
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            return records, offset, "truncated frame payload"
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset, "frame CRC mismatch"
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            return records, offset, f"undecodable frame: {exc}"
        records.append(record)
        offset = end
    return records, offset, None


def read_journal(store: SegmentStore, meters=None) -> tuple[list[dict], int, int]:
    """Read every valid record; truncate a torn tail in place.

    Returns ``(records, next_lsn, torn_bytes)``.  An invalid frame in
    the *last* segment is the expected signature of a crash mid-write:
    the segment is physically truncated back to its last valid frame
    (metered via ``farm.journal.torn.truncated``).  Anywhere else it is
    real corruption and raises :class:`JournalError`.
    """
    names = store.names()
    records: list[dict] = []
    torn_bytes = 0
    prev_lsn: int | None = None
    for i, name in enumerate(names):
        data = store.read(name)
        frames, valid_end, error = _scan_segment(data)
        if error is not None:
            if i != len(names) - 1:
                raise JournalError(
                    f"{name}: {error} (corruption before the journal tail)"
                )
            torn_bytes = len(data) - valid_end
            if meters is not None:
                meters.counter("farm.journal.torn.truncated").inc()
            if valid_end <= len(_HEADER):
                store.delete(name)
            else:
                store.truncate(name, valid_end)
        for record in frames:
            lsn = record.get("lsn")
            if not isinstance(lsn, int):
                raise JournalError(f"{name}: record without an LSN")
            if prev_lsn is not None and lsn != prev_lsn + 1:
                raise JournalError(f"{name}: LSN gap {prev_lsn} -> {lsn}")
            prev_lsn = lsn
            records.append(record)
    if records:
        next_lsn = records[-1]["lsn"] + 1
    elif names:
        next_lsn = max(_segment_first_lsn(n) for n in store.names() or names)
    else:
        next_lsn = 1
    return records, next_lsn, torn_bytes


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What :func:`recover` did."""

    restored_problems: list[int]
    replayed: int
    next_lsn: int
    checkpoint_lsn: int
    torn_bytes: int


def _divergence(message: str) -> JournalError:
    return JournalError(f"replay divergence: {message}")


def _apply(server: TaskFarmServer, record: dict, gateway=None) -> None:
    """Apply one server journal record by running the transition that
    wrote it (see :func:`recover` for the scratch sinks).

    A record that ends an already-ended problem the same way is an
    idempotent replay, never a mutation: a replayed
    ``gateway.job.cancel`` has already cancelled the problem its
    ``problem.cancelled`` record names.
    """
    kind = record["kind"]
    now = record["now"]
    if kind == "problem.submit":
        pid = record["problem"].problem_id
        if pid not in server._problems:
            server.submit(record["problem"], now)
        elif gateway is None or pid not in gateway._by_problem:
            raise _divergence(f"problem {pid} submitted twice")
        # else: the second half of a job start, whose replay submitted it
    elif kind == "donor.register":
        server.register_donor(record["donor"], now, slots=record["slots"])
    elif kind == "donor.deregister":
        server.deregister_donor(record["donor"], now)
    elif kind == "unit.cut":
        state = server._problems[record["pid"]]
        uid, items = record["uid"], record["items"]
        if uid != state.next_unit_id:
            raise _divergence(
                f"journal cut unit {uid} but problem {record['pid']} is at "
                f"unit {state.next_unit_id}"
            )
        unit = server._cut_unit(state, items, now)
        if unit is None or unit.items != items:
            got = "nothing" if unit is None else f"{unit.items} items"
            raise _divergence(
                f"re-cutting unit {uid} of problem {record['pid']} yielded "
                f"{got}, journal recorded {items} items"
            )
        # Never re-granted during replay: every unfolded unit parks on
        # the requeue and is reissued by normal scheduling afterwards.
        state.requeue.append(unit)
    elif kind in ("unit.voting.open", "unit.voting.require"):
        state = server._problems[record["pid"]]
        server._require_votes(state, record["uid"], record["required"], now)
    elif kind == "unit.vote":
        result = record["result"]
        state = server._problems[result.problem_id]
        server._cast_vote(state.voting[result.unit_id], result, now)
    elif kind == "unit.fold":
        result = record["result"]
        state = server._problems[result.problem_id]
        if result.unit_id in state.completed_units:
            raise _divergence(
                f"unit {result.unit_id} of problem {result.problem_id} "
                f"folded twice"
            )
        server._accept_result(state, result, now)
    elif kind == "rep":
        server._rate(record["donor"], record["field"], now)
    elif kind in _END_STATUS:
        state = server._problems[record["pid"]]
        status = _END_STATUS[kind]
        if state.status is not status:
            # A fold completes its problem itself, so problem.completed
            # only checks that replay agrees.
            if state.status is not ProblemStatus.RUNNING or (
                status is ProblemStatus.COMPLETE
            ):
                raise _divergence(
                    f"journal {kind.split('.')[1]} problem {record['pid']} "
                    f"but replay left it {state.status.value}"
                )
            server._end_problem(state, status, now, record.get("reason"))
    else:
        raise JournalError(f"unknown journal record kind {kind!r}")


def _bind_sinks(server: TaskFarmServer, gateway, obs: Observability) -> None:
    """Point the server's (and gateway's) meters and spans at *obs*."""
    server._bind_obs(obs)
    if gateway is not None:
        gateway._bind_meters(obs.meters)


def _require(gateway, found: str) -> None:
    if gateway is None:
        raise JournalError(
            f"{found} but no gateway was provided to recover() — restart "
            "with the gateway enabled (e.g. repro-server --tenants)"
        )


def recover(
    server: TaskFarmServer,
    store: SegmentStore,
    checkpoint: bytes | None = None,
    now: float = 0.0,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    gateway=None,
) -> RecoveryReport:
    """Rebuild a *fresh* server from ``checkpoint + journal tail``.

    Deterministic: the checkpoint restores the snapshot it covers, then
    every journal record past its ``journal_lsn`` is replayed in order.
    A torn tail is truncated at the last valid frame (see
    :func:`read_journal`); the result is a valid shorter history whose
    lost suffix donors simply recompute.  On return the server journals
    into *store* at the next LSN, so recovery composes with further
    crashes.

    When the dead server ran a job gateway
    (:class:`repro.core.gateway.JobGateway`), pass a fresh gateway
    already attached to *server*: the checkpoint's gateway snapshot is
    restored into it, ``gateway.*`` journal records are replayed
    through it, and a final ``gateway.reconcile`` folds terminal
    problem statuses into jobs.  A journal that contains gateway state
    while ``gateway`` is None fails loudly — silently dropping queued
    jobs is not recovery.
    """
    from repro.core.checkpoint import parse_checkpoint, restore_checkpoint

    obs = server.obs
    started = time.perf_counter()
    # Recovery runs the live transitions against scratch sinks:
    # pre-crash work must not count twice in the meters or spans, and
    # nothing is journaled again.
    server.journal = None
    _bind_sinks(server, gateway, Observability())
    checkpoint_lsn = 0
    restored: list[int] = []
    try:
        if checkpoint is not None:
            blob = parse_checkpoint(checkpoint, origin="recovery checkpoint")
            checkpoint_lsn = blob.journal_lsn
            restored = restore_checkpoint(blob, server, now)
            if blob.gateway is not None:
                _require(gateway, "checkpoint contains gateway state")
                gateway.restore(blob.gateway)
        records, next_lsn, torn_bytes = read_journal(store, meters=obs.meters)
        replayed = 0
        for record in records:
            if record["lsn"] <= checkpoint_lsn:
                continue
            if record["kind"].startswith("gateway."):
                _require(gateway, "journal contains gateway records")
                gateway.replay(record)
            else:
                _apply(server, record, gateway)
            replayed += 1
        # A torn tail can rip a unit's voting.open while its cut (and a
        # result already in flight to a donor) survive; under a
        # replicated policy every unfolded unit must re-earn its
        # quorum, so re-open voting before re-balancing supply.
        if server.integrity.active and server.integrity.replication > 1:
            for state in server._problems.values():
                if state.status is not ProblemStatus.RUNNING:
                    continue
                for unit in state.requeue:
                    if unit.unit_id not in state.voting:
                        server._require_votes(
                            state, unit.unit_id, server.integrity.replication, now
                        )
        for state in server._problems.values():
            server._rebalance_votes(state, now, reason="recover")
        if gateway is not None:
            gateway.reconcile(now)
    finally:
        _bind_sinks(server, gateway, obs)
        server._problem_spans.clear()  # opened on the scratch tracer
    server._g_problems_running.set(len(server.active_problem_ids()))
    server._g_quarantined.set(len(server.reputation.quarantined_ids()))
    server._sync_donor_gauges()
    if gateway is not None:
        gateway._sync_gauges()
    obs.meters.counter("farm.recovery.replayed").inc(replayed)
    obs.meters.counter("farm.recovery.seconds").inc(time.perf_counter() - started)
    server.journal = JournalWriter(
        store, start_lsn=next_lsn, segment_bytes=segment_bytes, meters=obs.meters
    )
    return RecoveryReport(
        restored_problems=restored,
        replayed=replayed,
        next_lsn=next_lsn,
        checkpoint_lsn=checkpoint_lsn,
        torn_bytes=torn_bytes,
    )


def torn_tail(store: SegmentStore, nbytes: int) -> int:
    """Chop up to *nbytes* off the newest segment (chaos helper).

    Simulates a crash that left a partially written frame — or ripped
    out several fsync'd ones — at the journal tail.  Returns the bytes
    actually removed.
    """
    names = store.names()
    if not names or nbytes <= 0:
        return 0
    name = names[-1]
    size = len(store.read(name))
    removed = min(nbytes, size)
    if removed == size:
        store.delete(name)
    else:
        store.truncate(name, size - removed)
    return removed
