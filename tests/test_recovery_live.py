"""Live crash-recovery drills: real threads, real files, real SIGKILL.

Two layers above the simulated drills in ``test_chaos.py``:

* **Threaded-live differentials** — donors are real ``DonorClient``
  threads hammering one ``TaskFarmServer`` journaling to a ``DirStore``
  on disk.  A kill switch drops the server mid-run at a chosen fold
  count; a fresh server recovers from the journal directory alone and
  new donor threads finish the job.  The final digest must be
  bit-identical to a never-crashed threaded run — for both target
  applications, including a torn-tail corruption case that must recover
  only after loudly truncating the tear.

* **SIGKILL e2e** — a real ``repro-server`` subprocess with
  ``--journal`` is killed with SIGKILL while an RMI donor is mid-run;
  a second subprocess recovers from the same directory, the donor's
  ``ReconnectingPort`` redials and re-registers, and the run completes
  with the exact closed-form answer.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.dprml import DPRmlConfig
from repro.apps.dprml import build_problem as build_dprml_problem
from repro.apps.dsearch import DSearchConfig
from repro.apps.dsearch import build_problem as build_dsearch_problem
from repro.bio.phylo.models import JC69
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.seq import DNA
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.core.client import DonorClient, InProcessServerPort
from repro.core.integrity import canonical_digest
from repro.core.journal import DirStore, JournalWriter, recover
from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from repro.rmi.proxy import connect
from repro.rmi.reconnect import ReconnectingPort
from tests.helpers import RangeSumDataManager, SlowRangeSumAlgorithm

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def dsearch_factory():
    rng = np.random.default_rng(7)
    query = random_sequence("q0", 60, DNA, rng)
    database, _ = seeded_database(
        query, decoy_count=14, homolog_count=2, seed=11, substitution_rate=0.1
    )

    def build():
        return build_dsearch_problem(database, [query], DSearchConfig(top_hits=4))

    return build


@pytest.fixture(scope="module")
def dprml_factory():
    true = random_yule_tree(5, seed=33, mean_branch=0.2)
    alignment = simulate_alignment(true, JC69(), 120, seed=34)

    def build():
        return build_dprml_problem(alignment, DPRmlConfig(model="jc69"))

    return build


class _KillPort(InProcessServerPort):
    """Thread-safe port that trips a kill switch after N accepted folds."""

    def __init__(self, server, lock, kill=None, kill_after=None):
        super().__init__(server)
        self._lock = lock
        self._kill = kill
        self._kill_after = kill_after
        self.accepted = 0

    def register_donor(self, donor_id, slots=1):
        with self._lock:
            super().register_donor(donor_id, slots)

    def deregister_donor(self, donor_id):
        with self._lock:
            super().deregister_donor(donor_id)

    def request_work(self, donor_id):
        with self._lock:
            return super().request_work(donor_id)

    def submit_result(self, result):
        with self._lock:
            accepted = super().submit_result(result)
            if accepted:
                self.accepted += 1
                if self._kill is not None and self.accepted >= self._kill_after:
                    self._kill.set()
            return accepted

    def report_failure(self, problem_id, unit_id, donor_id, error):
        with self._lock:
            super().report_failure(problem_id, unit_id, donor_id, error)

    def heartbeat(self, donor_id):
        with self._lock:
            super().heartbeat(donor_id)

    def get_algorithm(self, problem_id):
        with self._lock:
            return super().get_algorithm(problem_id)

    def all_complete(self):
        with self._lock:
            return super().all_complete()


def _donor_swarm(port, count, should_stop, prefix):
    threads = []
    for i in range(count):
        client = DonorClient(f"{prefix}{i}", port, idle_sleep=0.001)
        t = threading.Thread(
            target=client.run,
            kwargs={"should_stop": should_stop},
            daemon=True,
        )
        t.start()
        threads.append(t)
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "donor thread hung"


def run_threaded(build_problem, journal_dir=None, kill_after=None, torn=0):
    """One threaded-live run; crash at *kill_after* folds and recover.

    Returns ``(digest, recovered_server, recovery_report_or_None)``.
    """
    problem = build_problem()
    store = DirStore(journal_dir) if journal_dir is not None else None
    server = TaskFarmServer(
        policy=FixedGranularity(4),
        lease_timeout=30.0,
        journal=JournalWriter(store) if store is not None else None,
    )
    pid = server.submit(problem, time.monotonic())

    lock = threading.RLock()
    kill = threading.Event() if kill_after is not None else None
    port = _KillPort(server, lock, kill, kill_after)
    _donor_swarm(port, 3, kill.is_set if kill is not None else None, "live")

    if kill is None:
        assert server.all_complete()
        return canonical_digest(server.final_result(pid)), server, None

    assert kill.is_set(), "problem finished before the kill point"
    # The "crash": drop the wrecked server on the floor.  Only the
    # journal directory survives into the next phase.
    del server, port
    if torn:
        # A torn write: garbage bytes on the end of the newest segment,
        # too short to even be a frame header.
        tail = sorted(store.names())[-1]
        store.append(tail, b"\xde\xad\xbe"[:torn])
        store.sync(tail)

    fresh = TaskFarmServer(policy=FixedGranularity(4), lease_timeout=30.0)
    report = recover(fresh, store, now=time.monotonic())
    port2 = _KillPort(fresh, threading.RLock())
    _donor_swarm(port2, 3, None, "heir")
    assert fresh.all_complete()
    return canonical_digest(fresh.final_result(pid)), fresh, report


@pytest.fixture(scope="module")
def dsearch_threaded_digest(dsearch_factory):
    digest, _server, _report = run_threaded(dsearch_factory)
    return digest


@pytest.fixture(scope="module")
def dprml_threaded_digest(dprml_factory):
    digest, _server, _report = run_threaded(dprml_factory)
    return digest


KILL_POINTS = [1, 2, 3]


@pytest.mark.slow
class TestThreadedRecoveryDifferential:
    """Crash/recover digest == never-crashed digest, live threads."""

    @pytest.mark.parametrize("kill_after", KILL_POINTS)
    def test_dsearch(self, kill_after, tmp_path, dsearch_factory, dsearch_threaded_digest):
        digest, fresh, report = run_threaded(
            dsearch_factory, journal_dir=tmp_path, kill_after=kill_after
        )
        assert digest == dsearch_threaded_digest
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.recovery.seconds"] > 0
        assert report.next_lsn > 1

    @pytest.mark.parametrize("kill_after", KILL_POINTS)
    def test_dprml(self, kill_after, tmp_path, dprml_factory, dprml_threaded_digest):
        digest, fresh, _report = run_threaded(
            dprml_factory, journal_dir=tmp_path, kill_after=kill_after
        )
        assert digest == dprml_threaded_digest
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.recovery.seconds"] > 0

    def test_dsearch_torn_tail(self, tmp_path, dsearch_factory, dsearch_threaded_digest):
        digest, fresh, report = run_threaded(
            dsearch_factory, journal_dir=tmp_path, kill_after=2, torn=3
        )
        assert digest == dsearch_threaded_digest
        assert report.torn_bytes == 3
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.torn.truncated"] == 1

    def test_dprml_torn_tail(self, tmp_path, dprml_factory, dprml_threaded_digest):
        digest, fresh, report = run_threaded(
            dprml_factory, journal_dir=tmp_path, kill_after=2, torn=3
        )
        assert digest == dprml_threaded_digest
        assert report.torn_bytes == 3
        counters = fresh.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.torn.truncated"] == 1


# ---------------------------------------------------------------------------
# SIGKILL e2e: a real server process, killed for real.
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_server(journal_dir: Path, port: int, log_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    # The submitted Problem pickles classes from tests.helpers, so the
    # server process needs the repo root importable alongside src/.
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    code = (
        "import sys; from repro.cli.farm import server_main; "
        "sys.exit(server_main(sys.argv[1:]))"
    )
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            [
                sys.executable, "-c", code,
                "--host", "127.0.0.1",
                "--port", str(port),
                "--journal", str(journal_dir),
                "--checkpoint-interval", "1",
                "--lease-timeout", "5",
                "--unit-target-seconds", "0.1",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(REPO_ROOT),
        )
    finally:
        log.close()


def _wait_listening(port: int, proc: subprocess.Popen, deadline: float = 20.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise AssertionError(f"server exited early with {proc.returncode}")
        try:
            proxy = connect("127.0.0.1", port, "taskfarm", timeout=1.0)
        except OSError:
            time.sleep(0.05)
            continue
        try:
            proxy.all_complete()
            return
        finally:
            proxy.close()
    raise AssertionError("server never started listening")


@pytest.mark.slow
def test_sigkill_server_recovers_and_donor_reconnects(tmp_path):
    port = _free_port()
    journal_dir = tmp_path / "journal"
    journal_dir.mkdir()
    n = 240
    procs = []
    try:
        proc1 = _spawn_server(journal_dir, port, tmp_path / "server1.log")
        procs.append(proc1)
        _wait_listening(port, proc1)

        with connect("127.0.0.1", port, "taskfarm") as proxy:
            pid = proxy.submit(
                Problem("sum", RangeSumDataManager(n), SlowRangeSumAlgorithm(0.05))
            )

        donor_port = ReconnectingPort(
            "127.0.0.1",
            port,
            "taskfarm",
            max_attempts=80,
            base_backoff=0.05,
            max_backoff=0.5,
            on_reconnect=lambda p: p.register_donor("e2e-donor", 1),
        )
        client = DonorClient("e2e-donor", donor_port, idle_sleep=0.05)
        donor = threading.Thread(target=client.run, daemon=True)
        donor.start()

        # Let the donor chew through a few journaled units (and at
        # least one 1-second checkpoint tick), then kill -9 the server.
        deadline = time.monotonic() + 30
        while client.units_done < 4 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert client.units_done >= 4, "donor never got going"
        os.kill(proc1.pid, signal.SIGKILL)
        proc1.wait(timeout=10)

        proc2 = _spawn_server(journal_dir, port, tmp_path / "server2.log")
        procs.append(proc2)

        # The donor's ReconnectingPort redials, re-registers, and
        # run() returns once the recovered server reports completion.
        donor.join(timeout=90)
        assert not donor.is_alive(), "donor never finished after recovery"
        donor_port.close()

        with connect("127.0.0.1", port, "taskfarm") as proxy:
            assert proxy.all_complete()
            assert proxy.final_result(pid) == sum(range(n))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    log2 = (tmp_path / "server2.log").read_text()
    assert "recovered" in log2, log2
