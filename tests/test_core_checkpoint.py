"""Tests for server checkpoint/restore."""

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    dumps_checkpoint,
    load_checkpoint,
    loads_checkpoint,
    save_checkpoint,
)
from repro.core.integrity import IntegrityPolicy
from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import RangeSumAlgorithm, RangeSumDataManager, check_invariants


def make_server():
    return TaskFarmServer(policy=FixedGranularity(10), lease_timeout=100.0)


def compute(a, donor="d0"):
    lo, hi = a.payload
    return WorkResult(a.problem_id, a.unit_id, sum(range(lo, hi)), donor, 1.0, a.items)


class TestCheckpointRoundtrip:
    def test_mid_run_restore_completes_correctly(self, tmp_path):
        server = make_server()
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        # Complete 4 of 10 units; leave one leased (in flight).
        t = 0.0
        for _ in range(4):
            a = server.request_work("d0", t := t + 0.1)
            server.submit_result(compute(a), t := t + 0.1)
        in_flight = server.request_work("d0", 3.0)
        assert in_flight is not None

        path = tmp_path / "farm.ckpt"
        save_checkpoint(server, path, now=4.0)

        # "Server restart": a fresh instance restores the state.
        fresh = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=100.0)
        restored = load_checkpoint(path, fresh, now=5.0)
        assert restored == [pid]
        assert fresh.status(pid) is ProblemStatus.RUNNING

        fresh.register_donor("d1", 6.0)
        t = 6.0
        while fresh.status(pid) is ProblemStatus.RUNNING:
            a = fresh.request_work("d1", t := t + 0.1)
            assert a is not None, "restored server ran out of units early"
            fresh.submit_result(compute(a, "d1"), t := t + 0.1)
        assert fresh.final_result(pid) == sum(range(100))

    def test_leased_unit_is_requeued_not_lost(self, tmp_path):
        server = make_server()
        pid = server.submit(
            Problem("sum", RangeSumDataManager(10), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        a = server.request_work("d0", 1.0)  # whole problem leased
        path = tmp_path / "farm.ckpt"
        save_checkpoint(server, path, now=2.0)

        fresh = make_server()
        load_checkpoint(path, fresh, now=3.0)
        fresh.register_donor("d1", 4.0)
        b = fresh.request_work("d1", 5.0)
        assert b is not None and b.unit_id == a.unit_id

    def test_completed_problem_survives(self, tmp_path):
        server = make_server()
        pid = server.submit(
            Problem("sum", RangeSumDataManager(10), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        a = server.request_work("d0", 1.0)
        server.submit_result(compute(a), 2.0)
        assert server.status(pid) is ProblemStatus.COMPLETE
        path = tmp_path / "done.ckpt"
        save_checkpoint(server, path, now=3.0)

        fresh = make_server()
        load_checkpoint(path, fresh, now=4.0)
        assert fresh.status(pid) is ProblemStatus.COMPLETE
        assert fresh.final_result(pid) == sum(range(10))

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        server = make_server()
        server.submit(Problem("s", RangeSumDataManager(5), RangeSumAlgorithm()), 0.0)
        path = tmp_path / "farm.ckpt"
        save_checkpoint(server, path, now=1.0)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestCheckpointRestoresCounters:
    """Restore rebuilds every kept counter from the unchanged v4
    format: ``items_cut`` is the folded items plus the requeued units'."""

    @pytest.mark.parametrize("replication", [1, 2])
    def test_mid_run_restore_rebuilds_counters(self, replication):
        integrity = IntegrityPolicy(replication=replication)

        def server_factory():
            return TaskFarmServer(
                policy=FixedGranularity(7), lease_timeout=10.0, integrity=integrity
            )

        server = server_factory()
        done = server.submit(
            Problem("done", RangeSumDataManager(7), RangeSumAlgorithm()), 0.0
        )
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        gone = server.submit(
            Problem("gone", RangeSumDataManager(30), RangeSumAlgorithm()), 0.0
        )
        donors = ["d0", "d1", "d2"]
        for donor in donors:
            server.register_donor(donor, 0.0)
        t = 0.0
        # Fold a few units, then leave leases in flight: d2's lapses
        # and is requeued, d0's and d1's are renewed and still out.
        for _ in range(4):
            for donor in donors:
                a = server.request_work(donor, t := t + 0.1)
                if a is not None:
                    server.submit_result(compute(a, donor), t := t + 0.1)
                check_invariants(server)
        server.cancel_problem(gone, t)
        assert server.status(done) is ProblemStatus.COMPLETE
        for donor in ("d2", "d0", "d1"):
            assert server.request_work(donor, t := t + 0.1) is not None
        t += 9.0
        for donor in ("d0", "d1"):
            server.heartbeat(donor, t)
        assert server.expire_leases(t := t + 1.5) == 1
        check_invariants(server)
        state = server._problems[pid]
        assert server.leases.in_flight(pid)[0] >= 2
        assert state.requeue or state.replicas
        assert 0 < server._remaining_items(state) < 100

        fresh = server_factory()
        loads_checkpoint(dumps_checkpoint(server, t), fresh, now=t)
        check_invariants(fresh)
        for p in (done, pid, gone):
            assert fresh._problems[p].items_cut == server._problems[p].items_cut
        assert fresh._remaining_items(fresh._problems[pid]) == (
            server._remaining_items(state)
        )
        for donor in ("e0", "e1"):
            fresh.register_donor(donor, t)
        while fresh.status(pid) is ProblemStatus.RUNNING:
            for donor in ("e0", "e1"):
                a = fresh.request_work(donor, t := t + 0.1)
                if a is not None:
                    fresh.submit_result(compute(a, donor), t := t + 0.1)
                check_invariants(fresh)
        assert fresh.final_result(pid) == sum(range(100))


class TestCheckpointUnderIntegrity:
    def test_mid_chaos_checkpoint_preserves_votes_and_quarantine(self, tmp_path):
        """Save while quorum votes are pending, redundant leases are out
        and a byzantine donor sits in quarantine; the restored server
        must finish with the correct result and an intact blacklist."""
        policy = IntegrityPolicy(replication=2)

        def make_integrity_server():
            return TaskFarmServer(
                policy=FixedGranularity(10),
                lease_timeout=1e6,
                integrity=policy,
            )

        server = make_integrity_server()
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        donors = ["liar", "d1", "d2"]
        for donor in donors:
            server.register_donor(donor, 0.0)

        # Drive until the liar's disagreements quarantine it, then stop
        # mid-problem so votes and redundant leases are still in flight.
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
                value = (
                    ("lie", a.unit_id)
                    if donor == "liar"
                    else sum(range(lo, hi))
                )
                server.submit_result(
                    WorkResult(a.problem_id, a.unit_id, value, donor, 1.0, a.items),
                    (t := t + 0.1),
                )
        else:
            raise AssertionError("liar never quarantined")
        assert server.status(pid) is ProblemStatus.RUNNING

        # At least one replicated unit stays mid-vote: leased, unresolved.
        assert server.request_work("d1", (t := t + 0.1)) is not None

        path = tmp_path / "chaos.ckpt"
        save_checkpoint(server, path, now=t)

        fresh = make_integrity_server()
        assert load_checkpoint(path, fresh, now=t + 1.0) == [pid]

        # The quarantine survived the restart: the liar gets no work.
        assert "liar" in fresh.reputation.quarantined_ids()
        fresh.register_donor("liar", (t := t + 1.0))
        assert fresh.request_work("liar", (t := t + 1.0)) is None

        for donor in ("d1", "d2"):
            fresh.register_donor(donor, t)
        for _ in range(10_000):
            if fresh.status(pid) is not ProblemStatus.RUNNING:
                break
            for donor in ("d1", "d2"):
                a = fresh.request_work(donor, (t := t + 0.1))
                if a is None:
                    continue
                lo, hi = a.payload
                fresh.submit_result(
                    WorkResult(
                        a.problem_id, a.unit_id, sum(range(lo, hi)), donor, 1.0, a.items
                    ),
                    (t := t + 0.1),
                )
        assert fresh.status(pid) is ProblemStatus.COMPLETE
        assert fresh.final_result(pid) == sum(range(100))


class TestCheckpointErrors:
    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError, match="not a task-farm checkpoint"):
            load_checkpoint(path, make_server(), now=0.0)

    def test_corrupt_payload_rejected(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"TFCK" + b"\x00\x01garbage")
        with pytest.raises(CheckpointError, match="cannot decode"):
            load_checkpoint(path, make_server(), now=0.0)

    def test_conflicting_problem_rejected(self, tmp_path):
        server = make_server()
        problem = Problem("s", RangeSumDataManager(5), RangeSumAlgorithm())
        server.submit(problem, 0.0)
        path = tmp_path / "farm.ckpt"
        save_checkpoint(server, path, now=1.0)
        with pytest.raises(CheckpointError, match="already present"):
            load_checkpoint(path, server, now=2.0)
