"""The result-integrity layer: replication, quorum voting, spot
checks, donor reputation / quarantine, and their persistence."""

import pickle

import pytest

from repro.cli.status import render_snapshot
from repro.core.checkpoint import (
    MAGIC,
    CheckpointBlob,
    CheckpointError,
    dumps_checkpoint,
    loads_checkpoint,
)
from repro.core.integrity import (
    IntegrityPolicy,
    ReputationState,
    canonical_digest,
)
from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.status import snapshot_dict
from repro.core.workunit import WorkResult
from tests.helpers import RangeSumAlgorithm, RangeSumDataManager


def make_server(**kwargs) -> TaskFarmServer:
    kwargs.setdefault("policy", FixedGranularity(10))
    kwargs.setdefault("lease_timeout", 1e6)
    return TaskFarmServer(**kwargs)


def sum_problem(n=100) -> Problem:
    return Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm())


def drive(server, donors, liars=(), t0=1.0, max_steps=10_000) -> float:
    """Round-robin donor loop; donors in *liars* return poison values.

    Each liar's poison is donor-specific and consistent per unit, the
    adversarial worst case for quorum voting.
    """
    t = t0
    for donor_id in donors:
        server.register_donor(donor_id, 0.0)
    for steps in range(max_steps):
        if server.all_complete():
            return t
        for donor_id in donors:
            assignment = server.request_work(donor_id, t)
            if assignment is None:
                continue
            lo, hi = assignment.payload
            value = sum(range(lo, hi))
            if donor_id in liars:
                value = ("lie", donor_id, assignment.unit_id)
            server.submit_result(
                WorkResult(
                    problem_id=assignment.problem_id,
                    unit_id=assignment.unit_id,
                    value=value,
                    donor_id=donor_id,
                    compute_seconds=1.0,
                    items=assignment.items,
                ),
                t + 0.5,
            )
            t += 1.0
    raise AssertionError("farm did not converge")


def counters(server) -> dict:
    return server.obs.meters.snapshot()["counters"]


class TestPolicy:
    def test_default_policy_is_inactive(self):
        assert not IntegrityPolicy().active

    def test_replication_activates(self):
        assert IntegrityPolicy(replication=2).active

    def test_spot_check_activates(self):
        assert IntegrityPolicy(spot_check_rate=0.01).active

    def test_escalation_alone_does_not_activate(self):
        # Escalation scales an active spot-check policy; it must not
        # switch the layer on for default servers (whose behaviour has
        # to stay byte-identical to the pre-integrity farm).
        assert not IntegrityPolicy(suspect_escalation=5.0).active

    def test_validation(self):
        with pytest.raises(ValueError, match="replication"):
            IntegrityPolicy(replication=0)
        with pytest.raises(ValueError, match="quorum"):
            IntegrityPolicy(quorum=1)
        with pytest.raises(ValueError, match="spot_check_rate"):
            IntegrityPolicy(spot_check_rate=1.5)
        with pytest.raises(ValueError, match="quarantine_after"):
            IntegrityPolicy(quarantine_after=0.0)
        with pytest.raises(ValueError, match="quarantine_after"):
            IntegrityPolicy(quarantine_after=5.0, blacklist_after=4.0)
        with pytest.raises(ValueError, match="max_votes"):
            IntegrityPolicy(replication=3, max_votes=2)

    def test_required_votes_replication(self):
        policy = IntegrityPolicy(replication=3)
        assert policy.required_votes(0, 0) == 3

    def test_spot_check_rate_one_always_audits(self):
        policy = IntegrityPolicy(spot_check_rate=1.0)
        assert all(policy.required_votes(0, uid) == 2 for uid in range(20))

    def test_spot_coin_deterministic(self):
        a = IntegrityPolicy(spot_check_rate=0.5, seed=7)
        b = IntegrityPolicy(spot_check_rate=0.5, seed=7)
        assert [a.spot_coin(1, u) for u in range(50)] == [
            b.spot_coin(1, u) for u in range(50)
        ]

    def test_canonical_digest_distinguishes(self):
        assert canonical_digest([1, 2, 3]) == canonical_digest([1, 2, 3])
        assert canonical_digest([1, 2, 3]) != canonical_digest([1, 2, 4])


class TestReplication:
    def test_clean_run_completes_with_exact_redundancy(self):
        """Reconciliation: with replication=2 every unit is issued to
        exactly one extra donor, so redundant work == 1x the problem."""
        server = make_server(integrity=IntegrityPolicy(replication=2))
        pid = server.submit(sum_problem(50), 0.0)
        drive(server, ["d0", "d1"])
        assert server.status(pid) is ProblemStatus.COMPLETE
        assert server.final_result(pid) == sum(range(50))
        c = counters(server)
        # 50 items in units of 10 => 5 accepted units, each computed twice.
        assert c["farm.items.completed"] == 50
        assert c["farm.integrity.redundant_items"] == 50
        assert c["farm.integrity.redundant_units"] == 5
        assert c["farm.units.issued"] == 10
        assert c["farm.integrity.agreements"] == 10  # both votes, 5 units
        assert c.get("farm.integrity.disagreements", 0) == 0

    def test_spot_check_everything(self):
        server = make_server(
            integrity=IntegrityPolicy(spot_check_rate=1.0)
        )
        pid = server.submit(sum_problem(30), 0.0)
        drive(server, ["d0", "d1"])
        assert server.final_result(pid) == sum(range(30))
        c = counters(server)
        assert c["farm.integrity.spot_checks"] == 3
        assert c["farm.integrity.redundant_units"] == 3
        assert c["farm.integrity.redundant_items"] == 30

    def test_inactive_policy_records_nothing(self):
        server = make_server()  # default policy
        pid = server.submit(sum_problem(30), 0.0)
        drive(server, ["d0", "d1"])
        assert server.final_result(pid) == sum(range(30))
        c = counters(server)
        assert c.get("farm.integrity.redundant_units", 0) == 0
        assert len(server.reputation) == 0
        assert "integrity" not in snapshot_dict(server, 100.0)


class TestByzantineDonor:
    def make_byzantine_run(self):
        server = make_server(
            policy=FixedGranularity(5),
            integrity=IntegrityPolicy(replication=2, quarantine_after=3.0),
        )
        pid = server.submit(sum_problem(60), 0.0)
        drive(server, ["liar", "d0", "d1"], liars={"liar"})
        return server, pid

    def test_detected_quarantined_and_result_still_correct(self):
        server, pid = self.make_byzantine_run()
        assert server.status(pid) is ProblemStatus.COMPLETE
        assert server.final_result(pid) == sum(range(60))
        rep = server.reputation.get("liar")
        assert rep is not None and rep.distrusted
        assert rep.disagreements >= 3
        assert server.reputation.quarantined_ids() == ["liar"]
        c = counters(server)
        assert c["farm.integrity.disagreements"] > 0
        assert c["farm.integrity.quarantines"] >= 1
        # Honest donors never lose trust.
        for honest in ("d0", "d1"):
            rep = server.reputation.get(honest)
            assert rep is None or not rep.distrusted

    def test_status_snapshot_surfaces_quarantine(self):
        server, _pid = self.make_byzantine_run()
        snap = snapshot_dict(server, 500.0)
        integrity = snap["integrity"]
        assert integrity["quarantined"] == ["liar"]
        assert integrity["reputations"]["liar"]["disagreements"] >= 3
        rendered = render_snapshot(snap)
        assert "farm.integrity.disagreements" in rendered
        assert "quarantined: liar" in rendered

    def test_quarantined_donor_gets_no_work_and_results_refused(self):
        server = make_server(integrity=IntegrityPolicy(replication=2))
        pid = server.submit(sum_problem(40), 0.0)
        for donor_id in ("liar", "d0"):
            server.register_donor(donor_id, 0.0)
        rep = server.reputation.record("liar")
        rep.disagreements = 3
        assert (
            server.reputation.update_state("liar", server.integrity)
            is ReputationState.QUARANTINED
        )
        assert server.request_work("liar", 1.0) is None
        assignment = server.request_work("d0", 1.0)
        assert assignment is not None
        forged = WorkResult(
            problem_id=pid,
            unit_id=assignment.unit_id,
            value=-1,
            donor_id="liar",
            compute_seconds=0.1,
            items=assignment.items,
        )
        assert server.submit_result(forged, 2.0) is False
        assert counters(server)["farm.integrity.untrusted"] == 1


class TestReputationPersistence:
    def test_quarantine_survives_checkpoint(self):
        server = make_server(
            policy=FixedGranularity(5),
            integrity=IntegrityPolicy(replication=2, quarantine_after=3.0),
        )
        pid = server.submit(sum_problem(60), 0.0)
        drive(server, ["liar", "d0", "d1"], liars={"liar"})
        assert server.reputation.quarantined_ids() == ["liar"]

        blob = dumps_checkpoint(server, 500.0)
        fresh = make_server(integrity=server.integrity)
        assert loads_checkpoint(blob, fresh, 501.0) == [pid]
        rep = fresh.reputation.get("liar")
        assert rep is not None and rep.state is ReputationState.QUARANTINED
        assert fresh.reputation.distrusted("liar")
        fresh.register_donor("liar", 502.0)
        assert fresh.request_work("liar", 503.0) is None

    def test_version_mismatch_fails_loudly(self):
        stale = CheckpointBlob(version=1, saved_at=0.0, snapshots=[])
        raw = MAGIC + pickle.dumps(stale)
        with pytest.raises(CheckpointError, match="version 1, expected 4"):
            loads_checkpoint(raw, make_server(), 0.0)

    def test_foreign_bytes_fail_loudly(self):
        with pytest.raises(CheckpointError, match="not a task-farm"):
            loads_checkpoint(b"garbage", make_server(), 0.0)
