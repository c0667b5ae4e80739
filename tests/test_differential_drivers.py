"""Differential tests: the live drivers and the simulator must schedule
identically.

The simulator's claim to validity is that it drives the *same*
:class:`~repro.core.server.TaskFarmServer` as the live cluster.  These
tests push one seeded workload through both drivers and require the
journaled unit cuts, the time-free meter totals and the final results
to match exactly.  The journal is the oracle for the cuts: it is the
record a crashed server recovers from, so two drivers that journal the
same cuts have made the same scheduling decisions.
"""

from __future__ import annotations

import pickle

from repro.cluster.local import ThreadCluster
from repro.cluster.sim import SimCluster
from repro.cluster.sim.machines import MachineSpec
from repro.core.journal import read_journal
from repro.core.problem import Problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity
from repro.core.server import TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import (
    ManualClock,
    RangeSumAlgorithm,
    RangeSumDataManager,
    journaled,
)

N = 150


def _cut_sequence(server: TaskFarmServer) -> list[tuple[int, int, int]]:
    """The scheduling decisions, donor-anonymous: the journal's
    ``unit.cut`` records as (problem, unit, items).

    Problem ids are normalized to order of first appearance — they are
    allocated from a process-global counter, so their absolute values
    differ between the two runs.
    """
    norm: dict[int, int] = {}
    seq = []
    for record in read_journal(server.journal.store)[0]:
        if record["kind"] == "unit.cut":
            pid = norm.setdefault(record["pid"], len(norm))
            seq.append((pid, record["uid"], record["items"]))
    return seq


def _timefree_totals(server: TaskFarmServer) -> dict:
    counters = server.obs.meters.snapshot()["counters"]
    return {
        name: counters[name]
        for name in (
            "farm.units.issued",
            "farm.units.completed",
            "farm.items.completed",
            "farm.units.requeued",
            "farm.units.duplicate",
            "farm.units.stale",
            "farm.bytes.in",
            "farm.bytes.out",
        )
    }


def _run_single_donor_manual(policy, n: int):
    """The live donor protocol under a manual clock.

    Identical to what one simulated machine at speed 1.0 does — request,
    compute for ``cost`` seconds, submit — but expressed through direct
    server calls, exactly as :class:`InProcessServerPort` would make them.
    """
    server = journaled(TaskFarmServer(policy=policy, lease_timeout=1e9))
    clock = ManualClock()
    pid = server.submit(
        Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm()), now=clock()
    )
    server.register_donor("donor", clock())
    algorithm = None
    while not server.all_complete():
        assignment = server.request_work("donor", clock())
        assert assignment is not None
        if algorithm is None:
            algorithm = server.get_algorithm(pid)
        cost = assignment.cost_hint or algorithm.cost(assignment.payload)
        duration = cost / 1.0  # speed 1.0, like the sim machine
        clock.advance(duration)
        value = algorithm.compute(assignment.payload)
        output_bytes = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        server.submit_result(
            WorkResult(
                problem_id=pid,
                unit_id=assignment.unit_id,
                value=value,
                donor_id="donor",
                compute_seconds=duration,
                items=assignment.items,
                output_bytes=output_bytes,
            ),
            clock(),
        )
    server.deregister_donor("donor", clock())
    return server, pid


def _run_sim_single_machine(policy, n: int):
    cluster = SimCluster(
        [MachineSpec("donor", speed=1.0)], policy=policy, seed=3, lease_timeout=1e9
    )
    journaled(cluster.server)
    pid = cluster.submit(
        Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm())
    )
    report = cluster.run()
    assert report.completed
    return cluster.server, pid, report


class TestFixedGranularityDifferential:
    def test_threadcluster_matches_simulator(self):
        """One worker, fixed unit size: both drivers must cut the same
        units in the same order and account them identically."""
        live = ThreadCluster(workers=1, policy=FixedGranularity(7), lease_timeout=1e9)
        journaled(live.server)
        live_pid = live.submit(
            Problem("sum", RangeSumDataManager(N), RangeSumAlgorithm())
        )
        live.run()

        sim_server, sim_pid, report = _run_sim_single_machine(FixedGranularity(7), N)

        assert _cut_sequence(live.server) == _cut_sequence(sim_server)
        assert _timefree_totals(live.server) == _timefree_totals(sim_server)
        assert live.final_result(live_pid) == report.results[sim_pid]
        assert live.final_result(live_pid) == N * (N - 1) // 2


class TestAdaptiveGranularityDifferential:
    def test_manual_clock_run_matches_simulator(self):
        """Adaptive sizing depends on measured unit durations; with the
        live path's compute time equal to the simulator's virtual
        compute time (speed 1.0), the granularity ramp — and therefore
        every issued unit — must be byte-identical."""
        policy_args = dict(target_seconds=8.0, probe_items=2)

        server, pid = _run_single_donor_manual(
            AdaptiveGranularity(**policy_args), N
        )
        sim_server, sim_pid, report = _run_sim_single_machine(
            AdaptiveGranularity(**policy_args), N
        )

        live_seq = _cut_sequence(server)
        sim_seq = _cut_sequence(sim_server)
        assert live_seq == sim_seq
        assert len({items for _, _, items in live_seq}) > 1, (
            "workload too small to exercise the adaptive ramp"
        )
        assert _timefree_totals(server) == _timefree_totals(sim_server)
        assert server.final_result(pid) == report.results[sim_pid]

    def test_meters_agree_across_drivers(self):
        """The streaming counters, not just the journaled cuts, must match."""
        server, _ = _run_single_donor_manual(AdaptiveGranularity(target_seconds=8.0), N)
        sim_server, _, _ = _run_sim_single_machine(
            AdaptiveGranularity(target_seconds=8.0), N
        )
        assert _timefree_totals(server) == _timefree_totals(sim_server)
