"""The write-ahead journal: framing, rotation, compaction, torn tails,
and deterministic crash recovery.

The headline property (hypothesis-driven): chopping *any* number of
bytes off the tail of a valid journal and recovering yields a loadable,
internally consistent server that can still be driven to the correct
final result — a torn tail is always a valid shorter history.
"""

import os
import pickle
import stat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    MAGIC as CKPT_MAGIC,
    CheckpointBlob,
    CheckpointError,
    dumps_checkpoint,
    loads_checkpoint,
    parse_checkpoint,
)
from repro.core import journal as journal_module
from repro.core.integrity import IntegrityPolicy
from repro.core.journal import (
    DirStore,
    JournalError,
    JournalWriter,
    MemoryStore,
    compact,
    read_journal,
    recover,
    torn_tail,
)
from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import (
    RangeSumAlgorithm,
    RangeSumDataManager,
    StagedAlgorithm,
    StagedDataManager,
    rewrite_journal,
)


def make_server(store=None, integrity=None, unit_items=10):
    journal = JournalWriter(store) if store is not None else None
    server = TaskFarmServer(
        policy=FixedGranularity(unit_items),
        lease_timeout=100.0,
        integrity=integrity,
        journal=journal,
    )
    return server


def compute(a, donor="d0"):
    lo, hi = a.payload
    return WorkResult(a.problem_id, a.unit_id, sum(range(lo, hi)), donor, 1.0, a.items)


def drive_to_completion(server, pid, donor="driver", t=1000.0, compute_fn=compute):
    """Pull and fold units with one fresh donor until the problem ends."""
    server.register_donor(donor, t)
    for _ in range(10_000):
        if server.status(pid) is not ProblemStatus.RUNNING:
            return t
        a = server.request_work(donor, (t := t + 0.1))
        if a is None:
            server.expire_leases((t := t + server.leases.timeout))
            continue
        server.submit_result(compute_fn(a, donor), (t := t + 0.1))
    raise AssertionError("problem did not complete")


def chop_tail(store, nbytes: int) -> int:
    """Chop *nbytes* off the journal's end, crossing segments."""
    removed = 0
    while removed < nbytes:
        got = torn_tail(store, nbytes - removed)
        if got == 0:
            break
        removed += got
    return removed


class TestFraming:
    def test_roundtrip_records_and_lsns(self):
        store = MemoryStore()
        writer = JournalWriter(store)
        for i in range(5):
            assert writer.append("k", float(i), value=i) == i + 1
        assert writer.last_lsn == 5
        records, next_lsn, torn = read_journal(store)
        assert [r["lsn"] for r in records] == [1, 2, 3, 4, 5]
        assert [r["value"] for r in records] == list(range(5))
        assert next_lsn == 6 and torn == 0

    def test_rotation_spills_segments(self):
        store = MemoryStore()
        writer = JournalWriter(store, segment_bytes=64)
        for i in range(20):
            writer.append("k", 0.0, value=i)
        assert len(store.names()) > 1
        records, next_lsn, _ = read_journal(store)
        assert len(records) == 20 and next_lsn == 21
        # Segment names encode their first LSN.
        assert store.names()[0] == "wal-000000000001.log"

    def test_explicit_rotate_seals_segment(self):
        store = MemoryStore()
        writer = JournalWriter(store)
        writer.append("a", 0.0)
        writer.rotate()
        writer.append("b", 0.0)
        assert store.names() == ["wal-000000000001.log", "wal-000000000002.log"]

    def test_torn_partial_frame_truncated_once(self):
        store = MemoryStore()
        writer = JournalWriter(store)
        for i in range(3):
            writer.append("k", 0.0, value=i)
        name = store.names()[0]
        whole = len(store.read(name))
        store.truncate(name, whole - 5)  # rip into the last frame
        records, next_lsn, torn = read_journal(store)
        assert [r["value"] for r in records] == [0, 1]
        assert next_lsn == 3 and torn > 0
        # The truncation was physical: a second read is clean.
        records2, _, torn2 = read_journal(store)
        assert len(records2) == 2 and torn2 == 0

    def test_crc_flip_in_tail_truncates_loudly(self):
        from repro.obs.meters import MeterRegistry

        store = MemoryStore()
        writer = JournalWriter(store)
        for i in range(4):
            writer.append("k", 0.0, value=i)
        name = store.names()[0]
        data = bytearray(store.read(name))
        data[-2] ^= 0xFF  # damage the last record's payload
        store._segments[name] = data
        meters = MeterRegistry()
        records, next_lsn, torn = read_journal(store, meters=meters)
        assert [r["value"] for r in records] == [0, 1, 2]
        assert next_lsn == 4 and torn > 0
        counters = meters.snapshot()["counters"]
        assert counters["farm.journal.torn.truncated"] == 1

    def test_corruption_before_tail_raises(self):
        store = MemoryStore()
        writer = JournalWriter(store)
        writer.append("a", 0.0)
        writer.rotate()
        writer.append("b", 0.0)
        first = store.names()[0]
        store.truncate(first, len(store.read(first)) - 3)
        with pytest.raises(JournalError, match="before the journal tail"):
            read_journal(store)

    def test_fully_torn_segment_deleted(self):
        store = MemoryStore()
        writer = JournalWriter(store)
        writer.append("a", 0.0)
        writer.rotate()
        writer.append("b", 0.0)
        last = store.names()[-1]
        # Leave only a ripped header: no frame survives.
        store.truncate(last, 6)
        records, next_lsn, torn = read_journal(store)
        assert [r["kind"] for r in records] == ["a"]
        assert next_lsn == 2 and torn > 0
        assert store.names() == ["wal-000000000001.log"]

    def test_compact_removes_covered_segments(self):
        store = MemoryStore()
        writer = JournalWriter(store, segment_bytes=1)  # one record per segment
        for i in range(4):
            writer.append("k", 0.0, value=i)
        assert len(store.names()) == 4
        removed = compact(store, upto_lsn=2)
        assert removed == 2
        records, next_lsn, _ = read_journal(store)
        assert [r["lsn"] for r in records] == [3, 4] and next_lsn == 5

    def test_compact_never_deletes_uncovered_or_active(self):
        store = MemoryStore()
        writer = JournalWriter(store, segment_bytes=1)
        for i in range(3):
            writer.append("k", 0.0, value=i)
        assert compact(store, upto_lsn=0) == 0
        assert len(store.names()) == 3
        # Even a checkpoint past the end keeps the newest segment.
        assert compact(store, upto_lsn=99) == 2
        assert len(store.names()) == 1

    def test_dir_store_matches_memory_store(self, tmp_path):
        mem, disk = MemoryStore(), DirStore(tmp_path / "wal")
        for store in (mem, disk):
            writer = JournalWriter(store, segment_bytes=64)
            for i in range(10):
                writer.append("k", float(i), value=i)
        assert disk.names() == mem.names()
        assert [disk.read(n) for n in disk.names()] == [
            mem.read(n) for n in mem.names()
        ]
        chop_tail(mem, 9)
        disk.close()
        chop_tail(disk, 9)
        mem_records, mem_next, mem_torn = read_journal(mem)
        disk_records, disk_next, disk_torn = read_journal(disk)
        assert mem_records == disk_records
        assert (mem_next, mem_torn) == (disk_next, disk_torn)


def record_bytes(writer, kind, now, **fields) -> int:
    """Pickled size of the record *writer* would append next."""
    record = {"lsn": writer.next_lsn, "kind": kind, "now": now, **fields}
    return len(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))


def store_bytes(store) -> dict:
    return {name: bytes(store.read(name)) for name in store.names()}


class TestFrameCap:
    """Writer and reader share one frame cap: a record the reader would
    reject (as corruption, or as a torn tail) is never written."""

    def test_record_one_byte_over_cap_refused(self, monkeypatch):
        store = MemoryStore()
        writer = JournalWriter(store)
        writer.append("a", 0.0)
        size = record_bytes(writer, "b", 1.0, blob=b"x" * 500)
        before = store_bytes(store)
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", size - 1)
        with pytest.raises(JournalError, match="frame cap"):
            writer.append("b", 1.0, blob=b"x" * 500)
        assert store_bytes(store) == before and writer.next_lsn == 2
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", size)
        assert writer.append("b", 1.0, blob=b"x" * 500) == 2
        records, next_lsn, torn = read_journal(store)
        assert [r["kind"] for r in records] == ["a", "b"]
        assert next_lsn == 3 and torn == 0

    def test_headroom_lowers_the_cap(self, monkeypatch):
        writer = JournalWriter(MemoryStore())
        size = record_bytes(writer, "a", 0.0)
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", size + 10)
        with pytest.raises(JournalError):
            writer.append("a", 0.0, headroom=11)
        assert writer.append("a", 0.0, headroom=10) == 1

    def test_refused_submit_leaves_server_unchanged(self, monkeypatch):
        store = MemoryStore()
        server = make_server(store)
        server.register_donor("d0", 0.0)
        problem = Problem("big", RangeSumDataManager(50), RangeSumAlgorithm())
        size = record_bytes(server.journal, "problem.submit", 1.0, problem=problem)
        before = store_bytes(store)
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", size - 1)
        with pytest.raises(JournalError):
            server.submit(problem, 1.0)
        assert problem.problem_id not in server._problems
        assert server.active_problem_ids() == []
        assert store_bytes(store) == before and server.journal.next_lsn == 2
        # At exactly the cap the same submit is accepted and recoverable.
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", size)
        pid = server.submit(problem, 1.0)
        fresh = make_server()
        recover(fresh, store, now=2.0)
        assert fresh.status(pid) is ProblemStatus.RUNNING
        drive_to_completion(fresh, pid)
        assert fresh.final_result(pid) == sum(range(50))

    def test_oversize_tail_frame_still_truncated_as_torn(self, monkeypatch):
        store = MemoryStore()
        writer = JournalWriter(store)
        writer.append("a", 0.0)
        writer.append("b", 0.0, blob=b"x" * 500)
        # A frame over the cap can no longer be written; one already on
        # disk (an older writer, or a torn length field) at the tail
        # reads as a crash mid-write, exactly as before.
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", 400)
        records, next_lsn, torn = read_journal(store)
        assert [r["kind"] for r in records] == ["a"]
        assert next_lsn == 2 and torn > 500
        assert read_journal(store)[2] == 0  # truncated physically


class TestPowerLossOrder:
    """A power cut keeps only what was fsynced, names included: the
    checkpoint must be durable under its final name before compaction
    deletes the segments it replaces, and every segment create/delete
    syncs the directory."""

    @staticmethod
    def record_fs_calls(monkeypatch, names: dict) -> list:
        """Log os.fsync / os.replace / os.unlink in call order; an fsync
        is labelled by the directory it syncs (*names*: inode -> label)
        or as "file"."""
        calls = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

        def fsync(fd):
            st = os.fstat(fd)
            label = names.get(st.st_ino, "?") if stat.S_ISDIR(st.st_mode) else "file"
            calls.append(("fsync", label))
            return real_fsync(fd)

        def replace(src, dst, **kw):
            calls.append(("replace", Path(src).name, Path(dst).name))
            return real_replace(src, dst, **kw)

        def unlink(path, **kw):
            calls.append(("unlink", Path(path).name))
            return real_unlink(path, **kw)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        return calls

    def test_checkpoint_is_durable_before_compaction(self, tmp_path, monkeypatch):
        from repro.cluster.local import ServerFacade

        wal, ckpt_dir = tmp_path / "wal", tmp_path / "ckpt"
        ckpt_dir.mkdir()
        server = make_server()
        server.journal = JournalWriter(
            DirStore(wal), segment_bytes=200, meters=server.obs.meters
        )
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        t = 0.0
        for _ in range(3):
            a = server.request_work("d0", (t := t + 0.1))
            server.submit_result(compute(a), (t := t + 0.1))
        segments = server.journal.store.names()
        assert len(segments) >= 3

        calls = self.record_fs_calls(
            monkeypatch,
            {os.stat(wal).st_ino: "wal-dir", os.stat(ckpt_dir).st_ino: "ckpt-dir"},
        )
        ServerFacade(server).checkpoint_to(ckpt_dir / "checkpoint.tfck")
        # The last segment stays as the tail; the rest are covered.
        compacted = [("unlink", name) for name in segments[:-1]]
        assert calls == [
            ("fsync", "file"),
            ("replace", "checkpoint.tfck.tmp", "checkpoint.tfck"),
            ("fsync", "ckpt-dir"),
        ] + [c for name in compacted for c in (name, ("fsync", "wal-dir"))]

        # The next record opens a fresh segment: its name is synced
        # before its header and the record itself.
        calls.clear()
        server.register_donor("d1", t + 0.1)
        assert calls == [("fsync", "wal-dir"), ("fsync", "file"), ("fsync", "file")]
        # farm.journal.fsyncs counts record syncs only: one per record.
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.fsyncs"] == counters["farm.journal.records"]
        assert server.status(pid) is ProblemStatus.RUNNING


class TestCheckpointV4:
    def test_older_version_rejected_loudly(self):
        stale = CheckpointBlob(version=3, saved_at=0.0, snapshots=[])
        raw = CKPT_MAGIC + pickle.dumps(stale)
        with pytest.raises(CheckpointError, match="version 3, expected 4"):
            parse_checkpoint(raw)

    def test_journal_lsn_roundtrip(self):
        server = make_server()
        raw = dumps_checkpoint(server, now=1.0, journal_lsn=17)
        assert parse_checkpoint(raw).journal_lsn == 17
        # The default (no journal) stays 0 for compatibility.
        assert parse_checkpoint(dumps_checkpoint(server, 1.0)).journal_lsn == 0


class TestRecovery:
    def test_crash_mid_run_recovers_and_completes(self):
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        t = 0.0
        for _ in range(4):
            a = server.request_work("d0", (t := t + 0.1))
            server.submit_result(compute(a), (t := t + 0.1))
        leased = server.request_work("d0", (t := t + 0.1))
        assert leased is not None

        # kill -9: the server object is simply dropped.
        fresh = make_server()
        report = recover(fresh, store, now=t + 1.0)
        assert report.replayed > 0 and report.torn_bytes == 0
        assert report.restored_problems == []  # no checkpoint in play
        assert fresh.status(pid) is ProblemStatus.RUNNING
        assert fresh.obs.meters.counter("farm.recovery.seconds").value > 0
        # The in-flight lease died with the server; its unit is back on
        # the requeue, not lost and not double-counted.
        state = fresh._problems[pid]
        assert leased.unit_id in {u.unit_id for u in state.requeue}
        assert state.units_completed == 4
        drive_to_completion(fresh, pid)
        assert fresh.final_result(pid) == sum(range(100))

    def test_recovered_server_journals_onward(self):
        """Recovery composes: crash again after recovering, recover again."""
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(60), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        a = server.request_work("d0", 0.1)
        server.submit_result(compute(a), 0.2)

        second = make_server()
        recover(second, store, now=1.0)
        second.register_donor("d1", 1.1)
        b = second.request_work("d1", 1.2)
        second.submit_result(compute(b, "d1"), 1.3)

        third = make_server()
        report = recover(third, store, now=2.0)
        assert third._problems[pid].units_completed == 2
        assert report.next_lsn > 1
        drive_to_completion(third, pid)
        assert third.final_result(pid) == sum(range(60))

    def test_duplicate_result_rejected_across_crash(self):
        """The ack-crash window: a fold that was journaled but never
        acknowledged is retried by its donor against the recovered
        server, which must shed it as a duplicate."""
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(50), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        a = server.request_work("d0", 0.1)
        result = compute(a)
        assert server.submit_result(result, 0.2) is True

        fresh = make_server()
        recover(fresh, store, now=1.0)
        fresh.register_donor("d0", 1.1)
        assert fresh.submit_result(result, 1.2) is False  # retry shed
        assert fresh._problems[pid].units_completed == 1

    def test_checkpoint_plus_tail_replay(self):
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        t = 0.0
        for _ in range(3):
            a = server.request_work("d0", (t := t + 0.1))
            server.submit_result(compute(a), (t := t + 0.1))
        # Checkpoint at a quiescent journal boundary, then compact.
        lsn = server.journal.last_lsn
        checkpoint = dumps_checkpoint(server, t, journal_lsn=lsn)
        server.journal.rotate()
        compact(store, lsn)
        # Two more folds land after the checkpoint.
        for _ in range(2):
            a = server.request_work("d0", (t := t + 0.1))
            server.submit_result(compute(a), (t := t + 0.1))

        fresh = make_server()
        report = recover(fresh, store, checkpoint=checkpoint, now=t + 1.0)
        assert report.checkpoint_lsn == lsn
        assert report.restored_problems == [pid]
        assert 0 < report.replayed  # only the tail, not the whole history
        assert fresh._problems[pid].units_completed == 5
        drive_to_completion(fresh, pid)
        assert fresh.final_result(pid) == sum(range(100))

    def test_torn_tail_truncated_then_recovers(self):
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(80), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        t = 0.0
        for _ in range(4):
            a = server.request_work("d0", (t := t + 0.1))
            server.submit_result(compute(a), (t := t + 0.1))
        torn_tail(store, 7)  # crash mid-write: a ripped final frame

        fresh = make_server()
        report = recover(fresh, store, now=t + 1.0)
        # The whole ripped frame is truncated, not just the chopped bytes.
        assert report.torn_bytes >= 7
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.torn.truncated"] == 1
        assert counters["farm.recovery.replayed"] == report.replayed
        drive_to_completion(fresh, pid)
        assert fresh.final_result(pid) == sum(range(80))

    def test_voting_state_survives_crash(self):
        policy = IntegrityPolicy(replication=2)
        store = MemoryStore()
        server = make_server(store, integrity=policy)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(40), RangeSumAlgorithm()), 0.0
        )
        for donor in ("d0", "d1"):
            server.register_donor(donor, 0.0)
        a = server.request_work("d0", 0.1)
        server.submit_result(compute(a, "d0"), 0.2)  # 1 of 2 votes: pending

        fresh = make_server(integrity=policy)
        recover(fresh, store, now=1.0)
        state = fresh._problems[pid]
        assert len(state.voting[a.unit_id].votes) == 1
        # Two honest donors settle every quorum post-crash (replication
        # needs votes from distinct donors, so one driver cannot finish).
        t = 1.0
        for donor in ("d1", "d2"):
            fresh.register_donor(donor, t)
        for _ in range(10_000):
            if fresh.status(pid) is not ProblemStatus.RUNNING:
                break
            for donor in ("d1", "d2"):
                work = fresh.request_work(donor, (t := t + 0.1))
                if work is not None:
                    fresh.submit_result(compute(work, donor), (t := t + 0.1))
        assert fresh.final_result(pid) == sum(range(40))
        rep = fresh.reputation.get("d0")
        assert rep is not None and rep.agreements > 0

    def test_reputation_transitions_survive_crash(self):
        policy = IntegrityPolicy(replication=2)
        store = MemoryStore()
        server = make_server(store, integrity=policy)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        donors = ["liar", "d1", "d2"]
        for donor in donors:
            server.register_donor(donor, 0.0)
        t = 1.0
        for _ in range(10_000):
            rep = server.reputation.get("liar")
            if rep is not None and rep.distrusted:
                break
            for donor in donors:
                a = server.request_work(donor, (t := t + 0.1))
                if a is None:
                    continue
                lo, hi = a.payload
                value = ("lie", a.unit_id) if donor == "liar" else sum(range(lo, hi))
                server.submit_result(
                    WorkResult(a.problem_id, a.unit_id, value, donor, 1.0, a.items),
                    (t := t + 0.1),
                )
        else:
            raise AssertionError("liar never quarantined")

        fresh = make_server(integrity=policy)
        recover(fresh, store, now=t + 1.0)
        assert "liar" in fresh.reputation.quarantined_ids()
        fresh.register_donor("liar", (t := t + 1.0))
        assert fresh.request_work("liar", (t := t + 0.1)) is None
        for donor in ("d1", "d2"):
            fresh.register_donor(donor, t)
        for _ in range(10_000):
            if fresh.status(pid) is not ProblemStatus.RUNNING:
                break
            for donor in ("d1", "d2"):
                a = fresh.request_work(donor, (t := t + 0.1))
                if a is None:
                    continue
                fresh.submit_result(compute(a, donor), (t := t + 0.1))
        assert fresh.final_result(pid) == sum(range(100))

    def test_staged_problem_recuts_deterministically(self):
        """Replay re-cuts via DataManager.next_unit in journal order —
        including across a stage barrier whose pending list pops from
        the end (order-sensitive, like DPRml's edge batches)."""

        def staged_compute(a, donor="d0"):
            return WorkResult(
                a.problem_id,
                a.unit_id,
                StagedAlgorithm().compute(a.payload),
                donor,
                1.0,
                a.items,
            )

        store = MemoryStore()
        server = make_server(store, unit_items=1)
        n = 8
        pid = server.submit(
            Problem("staged", StagedDataManager(n), StagedAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        t = 0.0
        for _ in range(5):  # crash mid-stage-1
            a = server.request_work("d0", (t := t + 0.1))
            server.submit_result(staged_compute(a), (t := t + 0.1))

        fresh = make_server(unit_items=1)
        recover(fresh, store, now=t + 1.0)
        drive_to_completion(fresh, pid, compute_fn=staged_compute)
        assert fresh.final_result(pid) == sum(i * i for i in range(n))

    def test_result_for_uncut_unit_refused_after_rollback(self):
        """A torn tail can roll next_unit_id back past a unit a donor
        still holds; its result must be refused as stale, not folded
        into a history that never cut it."""
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(50), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        a1 = server.request_work("d0", 0.1)
        name = store.names()[0]
        before_a2 = len(store.read(name))
        a2 = server.request_work("d0", 0.2)
        # Rip the journal back to just before a2's cut record.
        torn_tail(store, len(store.read(name)) - before_a2)

        fresh = make_server()
        recover(fresh, store, now=1.0)
        assert fresh._problems[pid].next_unit_id == a2.unit_id
        fresh.register_donor("d0", 1.0)
        assert fresh.submit_result(compute(a2), 1.1) is False
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.units.stale"] == 1
        assert fresh.submit_result(compute(a1), 1.2) is True
        drive_to_completion(fresh, pid)
        assert fresh.final_result(pid) == sum(range(50))

    def test_replay_divergence_fails_loudly(self):
        """A journal whose re-cut does not reproduce the recorded slice
        must raise, not fold results into the wrong data."""
        store = MemoryStore()
        server = make_server(store)
        server.submit(
            Problem("sum", RangeSumDataManager(30), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        server.request_work("d0", 0.1)
        # Doctor the cut record: claim a unit id replay cannot reach.
        records, _, _ = read_journal(store)
        doctored = MemoryStore()
        writer = JournalWriter(doctored)
        for record in records:
            fields = {
                k: v for k, v in record.items() if k not in ("lsn", "kind", "now")
            }
            if record["kind"] == "unit.cut":
                fields["uid"] = fields["uid"] + 1
            writer.append(record["kind"], record["now"], **fields)
        with pytest.raises(JournalError, match="replay divergence"):
            recover(make_server(), doctored, now=1.0)


def problem_facts(server) -> dict:
    """Every recoverable fact of every problem, by problem id."""
    return {
        pid: (
            state.status,
            state.completed_at,
            state.next_unit_id,
            state.units_completed,
            state.items_completed,
            set(state.completed_units),
            server.failure_reason(pid),
        )
        for pid, state in server._problems.items()
    }


class TestReplayThroughLiveTransitions:
    """Replay re-runs the transitions that wrote each record: the
    rebuilt server equals the live one, and nothing of it is counted,
    traced or logged a second time."""

    @staticmethod
    def run_every_ending(store):
        """A journaled run with one problem of each ending plus one
        still running: completed, failed (a poison unit), cancelled."""
        server = make_server(store)
        pids = {
            name: server.submit(
                Problem(name, RangeSumDataManager(30), RangeSumAlgorithm()), 0.0
            )
            for name in ("complete", "poison", "cancel", "open")
        }
        server.register_donor("d0", 0.0)
        t = 0.0
        for step in range(200):
            if step == 3:
                server.cancel_problem(pids["cancel"], (t := t + 0.1))
            ending = (server.status(pids["complete"]), server.status(pids["poison"]))
            if ProblemStatus.RUNNING not in ending:
                return server, pids
            a = server.request_work("d0", (t := t + 0.1))
            if a.problem_id == pids["poison"]:
                server.report_failure(a.problem_id, a.unit_id, "d0", "boom", t)
            elif a.problem_id != pids["open"] or a.unit_id == 0:
                server.submit_result(compute(a), (t := t + 0.1))
            # Later units of "open" stay leased: it is still running.
        raise AssertionError("the run did not settle")

    @pytest.mark.parametrize("repeat_cancel", [False, True])
    def test_replay_rebuilds_every_ending_exactly(self, repeat_cancel):
        """Also when the journal repeats an ending: a terminal self-loop
        replays as a no-op, never a mutation."""
        store = MemoryStore()
        server, pids = self.run_every_ending(store)
        statuses = {name: server.status(pid) for name, pid in pids.items()}
        assert statuses == {
            "complete": ProblemStatus.COMPLETE,
            "poison": ProblemStatus.FAILED,
            "cancel": ProblemStatus.CANCELLED,
            "open": ProblemStatus.RUNNING,
        }
        if repeat_cancel:
            store = rewrite_journal(
                store, extra=[("problem.cancelled", 50.0, {"pid": pids["cancel"]})]
            )
        fresh = make_server()
        recover(fresh, store, now=100.0)
        assert problem_facts(fresh) == problem_facts(server)
        assert fresh.final_result(pids["complete"]) == sum(range(30))

    def test_replay_counts_traces_and_logs_nothing(self):
        store = MemoryStore()
        _server, pids = self.run_every_ending(store)
        written = [(r["lsn"], r["kind"]) for r in read_journal(store)[0]]
        fresh = make_server()
        recover(fresh, store, now=100.0)
        snap = fresh.obs.meters.snapshot()
        counted = {name for name, value in snap["counters"].items() if value}
        assert counted == {"farm.recovery.replayed", "farm.recovery.seconds"}
        assert fresh.obs.tracer.finished_spans() == []
        assert fresh.obs.tracer.open_spans() == []
        # Nothing is journaled again.
        assert [(r["lsn"], r["kind"]) for r in read_journal(store)[0]] == written
        # Gauges describe the recovered state, not the replay.
        assert snap["gauges"]["farm.problems.running"] == 1
        assert snap["gauges"]["farm.donors.registered"] == 1
        # The live transitions count again from here on.
        drive_to_completion(fresh, pids["open"], t=200.0)
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.problems.completed"] == 1
        assert fresh.obs.tracer.open_spans() == []

    def test_donor_registered_after_checkpoint_recovers(self):
        """Replay re-runs a post-checkpoint registration at its
        pre-crash time, after the restore ran at the recovery time."""
        store = MemoryStore()
        server = make_server(store)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(30), RangeSumAlgorithm()), 0.0
        )
        lsn = server.journal.last_lsn
        checkpoint = dumps_checkpoint(server, 1.0, journal_lsn=lsn)
        server.register_donor("late", 2.0)
        fresh = make_server()
        recover(fresh, store, checkpoint=checkpoint, now=3.0)
        assert fresh.donor_ids() == ["late"]
        drive_to_completion(fresh, pid)
        assert fresh.final_result(pid) == sum(range(30))

    @pytest.mark.parametrize(
        ("name", "kind", "fields"),
        [
            ("complete", "problem.failed", {"reason": "late"}),
            ("cancel", "problem.completed", {}),
            ("open", "problem.completed", {}),
        ],
    )
    def test_conflicting_ending_diverges(self, name, kind, fields):
        store = MemoryStore()
        _server, pids = self.run_every_ending(store)
        doctored = rewrite_journal(
            store, extra=[(kind, 50.0, {"pid": pids[name], **fields})]
        )
        with pytest.raises(JournalError, match="replay divergence"):
            recover(make_server(), doctored, now=100.0)


# -- the hypothesis property ---------------------------------------------

EXPECTED_TOTAL = sum(range(60))


@pytest.fixture(scope="module")
def full_journal():
    """One complete journaled run; tests recover from chopped copies."""
    store = MemoryStore()
    server = TaskFarmServer(
        policy=FixedGranularity(7),
        lease_timeout=100.0,
        journal=JournalWriter(store, segment_bytes=512),
    )
    pid = server.submit(
        Problem("sum", RangeSumDataManager(60), RangeSumAlgorithm()), 0.0
    )
    drive_to_completion(server, pid, donor="d0", t=0.0)
    assert server.final_result(pid) == EXPECTED_TOTAL
    total_bytes = sum(len(store.read(n)) for n in store.names())
    return store, pid, total_bytes


def copy_store(store: MemoryStore) -> MemoryStore:
    dup = MemoryStore()
    for name in store.names():
        dup._segments[name] = bytearray(store.read(name))
    return dup


class TestPrefixTruncationProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(chop=st.integers(min_value=0, max_value=1 << 16))
    def test_any_tail_chop_recovers_consistently(self, chop, full_journal):
        store, pid, total_bytes = full_journal
        chopped = copy_store(store)
        chop_tail(chopped, chop % (total_bytes + 1))

        fresh = make_server(unit_items=7)
        recover(fresh, chopped, now=5000.0)

        if pid not in fresh._problems:
            # The chop consumed the submission itself: an empty but
            # valid history (the submitter would simply resubmit).
            assert fresh.all_complete()
            return
        state = fresh._problems[pid]
        # Internal consistency: counters agree with the fold set, and
        # no unit is simultaneously folded and queued.
        assert state.units_completed == len(state.completed_units)
        assert not (
            state.completed_units & {u.unit_id for u in state.requeue}
        )
        # Loadable: the recovered state checkpoints and restores.
        raw = dumps_checkpoint(fresh, 5001.0, journal_lsn=fresh.journal.last_lsn)
        reloaded = make_server(unit_items=7)
        assert loads_checkpoint(raw, reloaded, now=5002.0) == [pid]
        # Drivable: both servers still reach the correct total.
        for server in (fresh, reloaded):
            if server.status(pid) is ProblemStatus.RUNNING:
                drive_to_completion(server, pid, t=6000.0)
            assert server.final_result(pid) == EXPECTED_TOTAL


# -- power loss: only synced bytes are durable ---------------------------


class PowerCut(Exception):
    """The crash point: a sync that never returned."""


class CrashStore(MemoryStore):
    """A segment store under a power-cut model.

    Bytes count as durable only once a ``sync`` covered them.  While
    ``armed``, the next sync raises :class:`PowerCut` instead, so the
    call that was writing is never acknowledged.
    """

    def __init__(self) -> None:
        super().__init__()
        self.synced: dict[str, int] = {}
        self.armed = False

    def create(self, name: str) -> None:
        super().create(name)
        self.synced[name] = 0

    def sync(self, name: str) -> None:
        if self.armed:
            raise PowerCut(name)
        self.synced[name] = len(self._segments[name])

    def after_power_cut(self, keep) -> MemoryStore:
        """What a reboot finds: each segment's synced prefix plus the
        first ``keep(unsynced_bytes)`` bytes of its unsynced rest."""
        survivor = MemoryStore()
        for name in self.names():
            data = self.read(name)
            durable = self.synced[name]
            kept = durable + keep(len(data) - durable)
            survivor._segments[name] = bytearray(data[:kept])
        return survivor


class TestPowerCutProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        acked=st.integers(min_value=0, max_value=9),
        in_submit=st.booleans(),
        data=st.data(),
    )
    def test_acknowledged_folds_recover_exactly_once(self, acked, in_submit, data):
        """Cut the power in the call after the *acked*-th acknowledged
        fold (inside its request or its submit), lose any part of what
        was not synced: ``recover()`` folds every acknowledged unit,
        each exactly once."""
        store = CrashStore()
        server = TaskFarmServer(
            policy=FixedGranularity(7),
            lease_timeout=100.0,
            journal=JournalWriter(store, segment_bytes=512),
        )
        pid = server.submit(
            Problem("sum", RangeSumDataManager(60), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        folded: list[int] = []
        t = 0.0
        try:
            while True:
                store.armed = len(folded) == acked and not in_submit
                a = server.request_work("d0", (t := t + 0.1))
                if a is None:
                    break
                store.armed = len(folded) == acked
                if server.submit_result(compute(a), (t := t + 0.1)):
                    folded.append(a.unit_id)
        except PowerCut:
            pass
        survivor = store.after_power_cut(
            lambda unsynced: data.draw(st.integers(0, unsynced))
        )

        fresh = make_server(unit_items=7)
        recover(fresh, survivor, now=5000.0)
        state = fresh._problems[pid]
        assert set(folded) <= state.completed_units
        assert state.units_completed == len(state.completed_units)
        if fresh.status(pid) is ProblemStatus.RUNNING:
            drive_to_completion(fresh, pid, t=6000.0)
        assert fresh.final_result(pid) == EXPECTED_TOTAL
