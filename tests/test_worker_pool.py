"""The multi-core donor worker pool, end to end.

Three layers of coverage:

* **Lifecycle under chaos** — a SIGKILLed donor leaves no orphan worker
  processes (the per-worker watchdog), shutdown is idempotent, and a
  poisoned unit (unpicklable result) fails loudly without wedging the
  pool.
* **Capacity scheduling** — registration advertises slots, the server
  scales lease depth by :meth:`PipelineConfig.depth_for`, and
  ``AdaptiveGranularity`` warm-starts new problems from a donor's
  calibrated capacity.
* **Differential equality** — pooled runs (simulated multi-core
  machines and live threaded donors driving a real spawn pool) assemble
  results bit-identical to serial runs, for both target applications,
  across seeds.

Worker processes cost ~a second each to spawn, so every pooled test in
this module shares one module-scoped :class:`WorkerPool`.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import pytest

from repro.cluster.local import ThreadCluster
from repro.cluster.sim import MachineSpec, SimCluster, multicore_pool
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.client import DonorClient, InProcessServerPort, WorkerPool
from repro.core.integrity import canonical_digest
from repro.core.problem import Algorithm, Problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity
from repro.core.server import PipelineConfig, ProblemStatus, TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import RangeSumAlgorithm, RangeSumDataManager, RecordingPort
from tests.test_data_cache import DIFF_SEEDS, dprml_problem, dsearch_problem

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


class PoisonAlgorithm(Algorithm):
    """Returns an unpicklable value for the slice containing item 13.

    The lambda survives compute fine inside the worker; it is the pool's
    result transport that must fail loudly (and only for that unit).
    """

    def compute(self, payload: Any) -> Any:
        lo, hi = payload
        if lo <= 13 < hi:
            return lambda: None  # pragma: no cover - never called
        return sum(range(lo, hi))

    def cost(self, payload: Any) -> float:
        lo, hi = payload
        return float(hi - lo)


# ---------------------------------------------------------------------------
# The pooled donor loop against a real spawn pool


class TestPooledDonor:
    def test_pooled_run_matches_closed_form(self, shared_pool):
        server = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=60.0)
        pid = server.submit(
            Problem("rangesum", RangeSumDataManager(200), RangeSumAlgorithm()), 0.0
        )
        client = DonorClient(
            "pooled", InProcessServerPort(server), pool=shared_pool
        )
        done = client.run()
        assert server.final_result(pid) == 200 * 199 // 2
        assert done == client.units_done == 40
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.pool.units"] == 40
        assert counters["farm.pool.busy.seconds"] > 0
        assert counters["farm.pool.slot.seconds"] > 0

    def test_injected_pool_survives_run(self, shared_pool):
        """A shared pool is not shut down by the client's finally."""
        server = TaskFarmServer(policy=FixedGranularity(10))
        pid = server.submit(
            Problem("again", RangeSumDataManager(50), RangeSumAlgorithm()), 0.0
        )
        DonorClient("reuser", InProcessServerPort(server), pool=shared_pool).run()
        assert server.final_result(pid) == 50 * 49 // 2
        assert len(shared_pool.worker_pids()) == 2

    def test_port_calls_stay_on_the_run_thread(self, shared_pool):
        """Algorithm, blob and carry fetches happen at dispatch, on the
        loop's thread; only compute reaches the workers."""
        server = TaskFarmServer(policy=FixedGranularity(2), lease_timeout=60.0)
        server.submit(dsearch_problem(3, share=True), 0.0)
        port = RecordingPort(InProcessServerPort(server))
        assert DonorClient("pooled", port, pool=shared_pool).run() == 7
        assert {thread for _name, thread in port.calls} == {threading.get_ident()}
        assert port.names().count("get_shared_blob") == 2

    def test_pool_workers_honour_the_cache_budget(self):
        """The client's cache budget reaches its own pool's workers: a
        database over budget bypasses the worker cache on every unit."""
        problem = dsearch_problem(3, share=True)
        budget = problem.data_manager._database_ref.size - 1
        server = TaskFarmServer(policy=FixedGranularity(2), lease_timeout=60.0)
        server.submit(problem, 0.0)
        client = DonorClient(
            "budgeted", InProcessServerPort(server), workers=2, cache_bytes=budget
        )
        assert client.run() == 7
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.cache.bypass"] == 7


class TestCapacityScheduling:
    def test_registration_advertises_slots(self):
        server = TaskFarmServer()
        server.register_donor("wide", 0.0, slots=8)
        assert server.donor_state("wide").slots == 8
        server.register_donor("narrow", 0.0)
        assert server.donor_state("narrow").slots == 1

    def test_slots_must_be_positive(self):
        server = TaskFarmServer()
        with pytest.raises(ValueError):
            server.register_donor("bad", 0.0, slots=0)

    def test_depth_scales_with_slots(self):
        config = PipelineConfig(lease_depth=2)
        assert config.depth_for(1) == 2
        assert config.depth_for(4) == 8
        assert PipelineConfig(lease_depth=None).depth_for(4) is None

    def test_pooled_donor_holds_up_to_slots_leases(self):
        """With a depth-1 pipeline config, a slots=4 donor may still
        hold 4 concurrent leases — depth scales per slot."""
        server = TaskFarmServer(
            policy=FixedGranularity(1),
            lease_timeout=60.0,
            pipeline=PipelineConfig(lease_depth=1),
        )
        server.submit(
            Problem("wide", RangeSumDataManager(16), RangeSumAlgorithm()), 0.0
        )
        server.register_donor("quad", 0.0, slots=4)
        grants = []
        while True:
            a = server.request_work("quad", 0.0)
            if a is None:
                break
            grants.append(a)
        assert len(grants) == 4

    def test_adaptive_warm_start_from_capacity(self):
        """A donor calibrated on one problem gets capacity-sized (not
        probe-sized) first units of the next problem."""
        policy = AdaptiveGranularity(
            target_seconds=10.0, probe_items=4, max_items=1000
        )
        server = TaskFarmServer(policy=policy, lease_timeout=600.0)
        server.register_donor("fast", 0.0, slots=4)
        pid1 = server.submit(
            Problem("first", RangeSumDataManager(400), RangeSumAlgorithm()), 0.0
        )
        now = 0.0
        while not server.all_complete():
            a = server.request_work("fast", now)
            assert a is not None
            lo, hi = a.payload
            now += 0.01  # 100 items/sec equivalent per grant
            server.submit_result(
                WorkResult(
                    problem_id=a.problem_id,
                    unit_id=a.unit_id,
                    value=sum(range(lo, hi)),
                    donor_id="fast",
                    compute_seconds=a.items / 100.0,
                    items=a.items,
                ),
                now,
            )
        assert server.final_result(pid1) == 400 * 399 // 2
        assert server.donor_state("fast").capacity_rate() > 0

        server.submit(
            Problem("second", RangeSumDataManager(400), RangeSumAlgorithm()), now
        )
        first = server.request_work("fast", now)
        assert first is not None
        # Warm-started well above the cold probe, capped by the ramp.
        assert first.items > policy.probe_items
        assert first.items <= policy.probe_items * policy.max_growth


# ---------------------------------------------------------------------------
# Lifecycle under chaos (satellite)


class TestPoolLifecycle:
    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()  # second call is a no-op, not an error
        with pytest.raises(RuntimeError):
            pool.submit(
                ("k", None, ()), callback=lambda r: None,
                error_callback=lambda e: None,
            )

    def test_poisoned_result_fails_unit_without_wedging_pool(self, shared_pool):
        server = TaskFarmServer(
            policy=FixedGranularity(5), lease_timeout=60.0, max_unit_attempts=2
        )
        pid = server.submit(
            Problem("poisoned", RangeSumDataManager(40), PoisonAlgorithm()), 0.0
        )
        client = DonorClient(
            "victim", InProcessServerPort(server), pool=shared_pool
        )
        client.run()

        # The unpicklable unit failed loudly (twice: reissue then fail)
        # and took the problem down; the other units still completed.
        assert server.status(pid) is ProblemStatus.FAILED
        assert "Error" in (server.failure_reason(pid) or "")
        assert client.failures == 2
        assert client.units_done >= 1

        # The pool is not wedged: a clean problem through the same pool.
        server2 = TaskFarmServer(policy=FixedGranularity(10))
        pid2 = server2.submit(
            Problem("clean", RangeSumDataManager(60), RangeSumAlgorithm()), 0.0
        )
        DonorClient("after", InProcessServerPort(server2), pool=shared_pool).run()
        assert server2.final_result(pid2) == 60 * 59 // 2

    def test_sigkilled_donor_leaves_no_orphan_workers(self, tmp_path):
        """SIGKILL the donor process mid-unit: the workers' parent-death
        watchdog must reap every worker within its poll window."""
        script = tmp_path / "doomed_donor.py"
        script.write_text(
            """
import time

from repro.core.client import DonorClient, InProcessServerPort, WorkerPool
from repro.core.problem import Algorithm, Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from tests.helpers import RangeSumDataManager


class Glacial(Algorithm):
    def compute(self, payload):
        time.sleep(120.0)
        return 0

    def cost(self, payload):
        return 1.0


def main():
    server = TaskFarmServer(policy=FixedGranularity(1), lease_timeout=600.0)
    server.submit(Problem("glacial", RangeSumDataManager(8), Glacial()), 0.0)
    pool = WorkerPool(2)
    print("WORKERS", *pool.worker_pids(), flush=True)
    DonorClient("doomed", InProcessServerPort(server), pool=pool).run()


if __name__ == "__main__":
    main()
"""
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("WORKERS"), f"unexpected output: {line!r}"
            worker_pids = [int(p) for p in line.split()[1:]]
            assert len(worker_pids) == 2
            # Let the donor lease units and the workers start computing.
            time.sleep(0.5)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)

            deadline = time.monotonic() + 8.0
            while time.monotonic() < deadline:
                if all(_process_gone(pid) for pid in worker_pids):
                    break
                time.sleep(0.1)
            survivors = [p for p in worker_pids if not _process_gone(p)]
            assert not survivors, f"orphan workers survived: {survivors}"
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5.0)


def _process_gone(pid: int) -> bool:
    """Dead, or a zombie awaiting reaping by init."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        return stat.rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


# ---------------------------------------------------------------------------
# Differential equality: pooled == serial, bit for bit


def _run_sim_cores(problem, cores: int, pipeline: PipelineConfig | None = None):
    machines = [
        MachineSpec(f"m-{i}", speed=1.0, availability=1.0, cores=cores)
        for i in range(3)
    ]
    cluster = SimCluster(
        machines,
        policy=FixedGranularity(3),
        lease_timeout=120.0,
        seed=5,
        pipeline=pipeline,
    )
    pid = cluster.submit(problem)
    report = cluster.run()
    assert report.completed
    return report.results[pid]


class TestSimDifferential:
    """Multi-core simulated machines vs single-core, bit-identical."""

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dsearch_pooled_sim_bit_identical(self, seed):
        serial = _run_sim_cores(dsearch_problem(seed, share=False), cores=1)
        pooled = _run_sim_cores(dsearch_problem(seed, share=False), cores=2)
        assert canonical_digest(pooled) == canonical_digest(serial)

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dprml_pooled_sim_bit_identical(self, seed):
        serial = _run_sim_cores(dprml_problem(seed, share=False), cores=1)
        pooled = _run_sim_cores(dprml_problem(seed, share=False), cores=2)
        assert canonical_digest(pooled) == canonical_digest(serial)

    def test_pipelined_and_pooled_sim_bit_identical(self):
        """The full stack at once: prefetch + multi-core + blob cache."""
        serial = _run_sim_cores(dsearch_problem(3, share=False), cores=1)
        stacked = _run_sim_cores(
            dsearch_problem(3, share=True),
            cores=2,
            pipeline=PipelineConfig.pipelined(),
        )
        assert canonical_digest(stacked) == canonical_digest(serial)

    def test_multicore_pool_preset_completes(self):
        machines = multicore_pool(5, seed=3)
        assert any(m.cores > 1 for m in machines)
        cluster = SimCluster(
            machines, policy=FixedGranularity(3), lease_timeout=120.0, seed=5
        )
        pid = cluster.submit(dsearch_problem(3, share=False))
        report = cluster.run()
        assert report.completed
        assert report.results[pid]


class TestLiveDifferential:
    """Threaded donors driving a real spawn pool vs serial threads."""

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dsearch_threaded_pooled_bit_identical(self, seed, shared_pool):
        serial = _run_threaded(dsearch_problem(seed, share=False))
        pooled = _run_threaded(
            dsearch_problem(seed, share=True), pool=shared_pool
        )
        assert canonical_digest(pooled) == canonical_digest(serial)

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dprml_threaded_pooled_bit_identical(self, seed, shared_pool):
        serial = _run_threaded(dprml_problem(seed, share=False))
        pooled = _run_threaded(
            dprml_problem(seed, share=True), pool=shared_pool
        )
        assert canonical_digest(pooled) == canonical_digest(serial)


def _run_threaded(problem, pool: WorkerPool | None = None):
    cluster = ThreadCluster(
        workers=2,
        policy=FixedGranularity(3),
        lease_timeout=30.0,
        worker_pool=pool,
    )
    pid = cluster.submit(problem)
    cluster.run()
    return cluster.final_result(pid)


# ---------------------------------------------------------------------------
# Sim-path idle backoff (satellite)


class TestSimIdleBackoff:
    def test_idle_donors_pace_polls_at_stage_barrier(self):
        """When a stage barrier drains the queue, waiting donors poll at
        the idle_poll period — hot polling would show up as orders of
        magnitude more idle polls than the pacing bound allows."""
        trace = WorkloadTrace.staged(
            [[2.0, 4.0, 6.0, 8.0], [2.0, 4.0, 6.0, 8.0]], name="barrier"
        )
        machines = [
            MachineSpec(f"m-{i}", speed=1.0, availability=1.0) for i in range(4)
        ]
        cluster = SimCluster(
            machines,
            policy=FixedGranularity(1),
            lease_timeout=600.0,
            seed=3,
            execute=False,
            idle_poll=5.0,
        )
        cluster.submit(trace_problem(trace))
        report = cluster.run()
        assert report.completed
        counters = cluster.obs.meters.snapshot()["counters"]
        idle = counters.get("farm.pipeline.idle.polls", 0)
        # Early finishers must have idled at the barrier at least once...
        assert idle >= 1
        # ...but each donor polls at most once per idle_poll interval.
        bound = len(machines) * (report.sim_time / cluster.idle_poll + 2)
        assert idle <= bound, f"{idle} idle polls exceeds pacing bound {bound}"
