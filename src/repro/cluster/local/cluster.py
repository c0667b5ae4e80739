"""Live cluster backends: donors as threads or as separate processes.

:class:`ThreadCluster` runs donors as threads calling straight into the
server — fast and deterministic enough for tests and small jobs.

:class:`LocalCluster` is the full live path: the
:class:`~repro.core.server.TaskFarmServer` sits behind an RMI facade on
a TCP port, and each donor is a separate OS process running the real
:class:`~repro.core.client.DonorClient` against an RMI proxy — exactly
the paper's topology (one server, N donor machines) compressed onto
localhost.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.core.blobs import BlobRef, iter_blob_refs
from repro.core.client import DonorClient
from repro.core.problem import Algorithm, Problem
from repro.core.scheduler import GranularityPolicy
from repro.core.server import (
    Assignment,
    PipelineConfig,
    ProblemStatus,
    TaskFarmServer,
)
from repro.core.workunit import WorkResult
from repro.rmi import RMIServer, connect
from repro.rmi.datachannel import DataChannelServer, fetch_data
from repro.rmi.errors import ChecksumError, RMIError


class ServerFacade:
    """Thread-safe, clock-injecting wrapper exported over RMI.

    The pure state machine takes ``now`` everywhere and is not
    thread-safe; this facade adds both (wall-clock time, one lock).
    Expired leases are swept on every ``request_work``, and
    :meth:`start_lease_sweeper` adds a timer-driven sweep so a farm
    whose donors all vanished still reclaims their leases without
    waiting for inbound traffic.
    """

    def __init__(
        self,
        server: TaskFarmServer,
        data_channel: DataChannelServer | None = None,
        gateway=None,
    ):
        self._server = server
        self._lock = threading.RLock()
        self._data_channel = data_channel
        # Optional multi-tenant job gateway (repro.core.gateway); its
        # pump runs after every event that can finish a problem.
        self._gateway = gateway
        # problem_id -> blob keys published to the data channel for it.
        self._published: dict[int, set[str]] = {}
        self._m_published = server.obs.meters.counter("net.blob.published")
        self._sweep_stop: threading.Event | None = None
        self._sweep_thread: threading.Thread | None = None

    def _now(self) -> float:
        return time.monotonic()

    def start_lease_sweeper(self, interval: float | None = None) -> None:
        """Reclaim expired leases on a timer (idempotent).

        Defaults to a quarter of the lease timeout, mirroring the
        simulated cluster's periodic sweep.  Metered through the
        existing ``farm.leases.expired`` counter.
        """
        if self._sweep_thread is not None:
            return
        if interval is None:
            interval = max(1.0, self._server.leases.timeout / 4)
        stop = threading.Event()

        def sweep() -> None:
            while not stop.wait(interval):
                with self._lock:
                    self._server.expire_leases(self._now())
                    self._pump_gateway()

        self._sweep_stop = stop
        self._sweep_thread = threading.Thread(
            target=sweep, name="lease-sweeper", daemon=True
        )
        self._sweep_thread.start()

    def stop_lease_sweeper(self) -> None:
        if self._sweep_thread is None:
            return
        self._sweep_stop.set()
        self._sweep_thread.join(timeout=5.0)
        self._sweep_stop = None
        self._sweep_thread = None

    def checkpoint_to(self, path) -> int:
        """Write an atomic v4 checkpoint covering the journal so far.

        Holds the facade lock across dump + LSN capture so the snapshot
        and the LSN it records describe the same quiescent state, then
        rotates and compacts the journal segments the checkpoint
        covers.  Returns the covered LSN.

        Compaction waits until the checkpoint is durable under its
        final name, so a power cut never leaves the covered segments
        deleted without the checkpoint that replaces them.
        """
        from repro.core.checkpoint import save_checkpoint
        from repro.core.journal import compact

        with self._lock:
            writer = self._server.journal
            lsn = writer.last_lsn if writer is not None else 0
            save_checkpoint(
                self._server, path, self._now(), journal_lsn=lsn, gateway=self._gateway
            )
            if writer is not None:
                writer.rotate()
                compact(writer.store, lsn)
        return lsn

    def _publish_blobs(self, assignment: Assignment) -> None:
        """Put a unit's shared blobs on the data channel before the
        assignment leaves the server — a donor can never fetch a blob
        that is not yet published.  Called under the facade lock."""
        if self._data_channel is None:
            return
        pid = assignment.problem_id
        published = self._published.setdefault(pid, set())
        for ref in iter_blob_refs(assignment.payload):
            if ref.key in published:
                continue
            data = self._server.get_shared_blob(pid, ref.key)
            self._data_channel.retain(ref.key, data)
            published.add(ref.key)
            self._m_published.inc()

    def _sweep_finished_blobs(self) -> None:
        """Release the data-channel blobs of problems that ended.
        Content-addressed refcounts keep blobs shared by a still-running
        problem alive.  Called under the facade lock."""
        if self._data_channel is None or not self._published:
            return
        for pid in list(self._published):
            if self._server.status(pid) is ProblemStatus.RUNNING:
                continue
            for key in self._published.pop(pid):
                self._data_channel.release(key)

    def register_donor(self, donor_id: str, slots: int = 1) -> None:
        with self._lock:
            self._server.register_donor(donor_id, self._now(), slots=slots)

    def deregister_donor(self, donor_id: str) -> None:
        with self._lock:
            self._server.deregister_donor(donor_id, self._now())

    def request_work(self, donor_id: str) -> Assignment | None:
        with self._lock:
            now = self._now()
            self._server.expire_leases(now)
            assignment = self._server.request_work(donor_id, now)
            if assignment is not None:
                self._publish_blobs(assignment)
            return assignment

    def _pump_gateway(self) -> None:
        """Reconcile finished jobs + start queued ones (under the lock)."""
        if self._gateway is not None:
            self._gateway.pump(self._now())

    def submit_result(self, result: WorkResult) -> bool:
        with self._lock:
            accepted = self._server.submit_result(result, self._now())
            self._pump_gateway()
            self._sweep_finished_blobs()
            return accepted

    def heartbeat(self, donor_id: str) -> None:
        with self._lock:
            self._server.heartbeat(donor_id, self._now())

    def report_failure(
        self, problem_id: int, unit_id: int, donor_id: str, error: str
    ) -> None:
        with self._lock:
            self._server.report_failure(
                problem_id, unit_id, donor_id, error, self._now()
            )
            self._pump_gateway()
            self._sweep_finished_blobs()

    def get_algorithm(self, problem_id: int) -> Algorithm:
        with self._lock:
            return self._server.get_algorithm(problem_id)

    def get_blob(self, problem_id: int, key: str) -> bytes:
        with self._lock:
            return self._server.get_blob(problem_id, key)

    def get_shared_blob(self, problem_id: int, key: str) -> bytes:
        """RMI fallback path for shared blobs (data channel preferred)."""
        with self._lock:
            return self._server.get_shared_blob(problem_id, key)

    def data_address(self) -> tuple[str, int] | None:
        """Where donors fetch shared blobs in bulk (None when not run)."""
        if self._data_channel is None:
            return None
        return self._data_channel.host, self._data_channel.port

    def all_complete(self) -> bool:
        with self._lock:
            return self._server.all_complete()

    def submit(self, problem: Problem) -> int:
        with self._lock:
            return self._server.submit(problem, self._now())

    def status_name(self, problem_id: int) -> str:
        with self._lock:
            return self._server.status(problem_id).value

    def failure_reason(self, problem_id: int) -> str | None:
        with self._lock:
            return self._server.failure_reason(problem_id)

    def progress(self, problem_id: int) -> float:
        with self._lock:
            return self._server.progress(problem_id)

    def final_result(self, problem_id: int) -> Any:
        with self._lock:
            return self._server.final_result(problem_id)

    # -- job gateway (multi-tenant front door) -------------------------
    # RMI-friendly: admission rejections come back as plain dicts with
    # retry_after, not exceptions tunnelled over the wire.

    def submit_job(self, tenant_id: str, problem: Problem) -> dict:
        from repro.core.gateway import AdmissionError
        from repro.core.journal import JournalError

        with self._lock:
            if self._gateway is None:
                return {"error": "server runs no job gateway (--tenants)"}
            # Each remote submitter numbers problems from its own
            # process-local counter, so independent repro-jobs runs all
            # ship "problem 1" — re-key at the admission boundary.
            problem.problem_id = self._gateway.fresh_problem_id()
            try:
                job_id = self._gateway.submit_job(
                    tenant_id, problem, self._now()
                )
            except AdmissionError as exc:
                return {
                    "accepted": False,
                    "retry_after": exc.retry_after,
                    "reason": str(exc),
                }
            except (KeyError, ValueError, JournalError) as exc:
                return {"error": str(exc)}
            return {"accepted": True, "job_id": job_id}

    def job_status(self, job_id: int) -> dict:
        with self._lock:
            if self._gateway is None:
                return {"error": "server runs no job gateway (--tenants)"}
            try:
                return self._gateway.job_status(job_id)
            except KeyError as exc:
                return {"error": str(exc)}

    def cancel_job(self, job_id: int) -> dict:
        with self._lock:
            if self._gateway is None:
                return {"error": "server runs no job gateway (--tenants)"}
            try:
                cancelled = self._gateway.cancel_job(job_id, self._now())
            except KeyError as exc:
                return {"error": str(exc)}
            self._sweep_finished_blobs()
            return {"cancelled": cancelled}

    def job_result(self, job_id: int) -> Any:
        with self._lock:
            if self._gateway is None:
                raise RuntimeError("server runs no job gateway (--tenants)")
            return self._gateway.job_result(job_id)

    def gateway_snapshot(self) -> dict:
        with self._lock:
            if self._gateway is None:
                return {"error": "server runs no job gateway (--tenants)"}
            return self._gateway.snapshot()

    def status_report(self) -> str:
        """Operator snapshot (also callable remotely over RMI)."""
        from repro.core.status import render_status

        with self._lock:
            return render_status(self._server, self._now())

    def status_json(self) -> dict:
        """Mid-run JSON snapshot: farm status + streaming meters.

        This is what ``repro-status`` calls over RMI against a live
        deployment.
        """
        from repro.core.status import snapshot_dict

        with self._lock:
            return snapshot_dict(self._server, self._now(), gateway=self._gateway)

    def metrics_snapshot(self) -> dict:
        """Just the streaming meters (cheap; no per-problem scan)."""
        return self._server.obs.meters.snapshot()


class ThreadCluster:
    """Donors as threads against an in-process server, each driving it
    through the one locked :class:`ServerFacade`.

    With ``prefetch=True`` every donor keeps a window of two units in
    flight; pass a matching ``pipeline``
    (:meth:`~repro.core.server.PipelineConfig.pipelined` when omitted)
    so the server leases each donor the extra in-flight unit.

    With ``pool_workers > 1`` every donor drives a multi-core
    :class:`~repro.core.client.WorkerPool`; pass ``worker_pool`` to
    share one pre-spawned pool across donors and runs (worker processes
    are expensive to start, and the pool is protocol-free so sharing is
    safe).
    """

    def __init__(
        self,
        workers: int = 4,
        policy: GranularityPolicy | None = None,
        lease_timeout: float = 30.0,
        idle_sleep: float = 0.002,
        prefetch: bool = False,
        pipeline: PipelineConfig | None = None,
        pool_workers: int = 1,
        worker_pool: Any = None,
    ):
        if prefetch and pipeline is None:
            pipeline = PipelineConfig.pipelined()
        self.server = TaskFarmServer(
            policy=policy, lease_timeout=lease_timeout, pipeline=pipeline
        )
        self.facade = ServerFacade(self.server)
        self.workers = workers
        self.idle_sleep = idle_sleep
        self.prefetch = prefetch
        self.pool_workers = pool_workers
        self.worker_pool = worker_pool
        self._threads: list[threading.Thread] = []

    def submit(self, problem: Problem) -> int:
        return self.facade.submit(problem)

    def run(self) -> None:
        """Run donors until every submitted problem completes."""
        clients = [
            DonorClient(
                f"thread-{i}",
                self.facade,
                idle_sleep=self.idle_sleep,
                prefetch=self.prefetch,
                workers=self.pool_workers,
                pool=self.worker_pool,
            )
            for i in range(self.workers)
        ]
        self._threads = [
            threading.Thread(target=client.run, daemon=True) for client in clients
        ]
        for t in self._threads:
            t.start()
        for t in self._threads:
            t.join()

    def final_result(self, problem_id: int) -> Any:
        return self.server.final_result(problem_id)


def make_blob_fetch(proxy):
    """Cache-miss transport for a live donor.

    Prefers the bulk data channel ("ordinary sockets ... more efficient
    than RMI"); a :class:`ChecksumError` propagates so the donor cache
    can refetch, while an unreachable or blob-less channel falls back
    to the RMI ``get_shared_blob`` path.
    """
    state: dict[str, Any] = {}

    def fetch(problem_id: int, ref: BlobRef) -> bytes:
        if "addr" not in state:
            try:
                state["addr"] = proxy.data_address()
            except (RMIError, OSError, AttributeError):
                state["addr"] = None
        addr = state["addr"]
        if addr is not None:
            try:
                return fetch_data(addr[0], addr[1], ref.key)
            except ChecksumError:
                raise
            except (RMIError, OSError):
                pass
        return proxy.get_shared_blob(problem_id, ref.key)

    return fetch


def _worker_main(
    host: str,
    port: int,
    donor_id: str,
    idle_sleep: float,
    prefetch: bool = False,
    pool_workers: int = 1,
) -> None:
    """Donor process entry point: the real client against RMI."""
    proxy = connect(host, port, "taskfarm")
    try:
        client = DonorClient(
            donor_id,
            proxy,
            idle_sleep=idle_sleep,
            blob_fetch=make_blob_fetch(proxy),
            prefetch=prefetch,
            workers=pool_workers,
        )
        client.run()
    finally:
        proxy.close()


class LocalCluster:
    """Server behind RMI + donor OS processes (the full live path).

    Usage::

        with LocalCluster(workers=4) as cluster:
            pid = cluster.submit(problem)
            cluster.start()
            result = cluster.wait(pid, timeout=60)
    """

    def __init__(
        self,
        workers: int = 2,
        policy: GranularityPolicy | None = None,
        lease_timeout: float = 30.0,
        idle_sleep: float = 0.05,
        prefetch: bool = False,
        pipeline: PipelineConfig | None = None,
        pool_workers: int = 1,
    ):
        if prefetch and pipeline is None:
            pipeline = PipelineConfig.pipelined()
        self.server = TaskFarmServer(
            policy=policy, lease_timeout=lease_timeout, pipeline=pipeline
        )
        self.prefetch = prefetch
        self.pool_workers = pool_workers
        self.data_channel = DataChannelServer(meters=self.server.obs.meters)
        self.facade = ServerFacade(self.server, data_channel=self.data_channel)
        # One observability bundle across layers: RMI dispatch meters and
        # farm counters land in the same registry the status CLI reads.
        self.rmi = RMIServer(obs=self.server.obs)
        self.rmi.bind("taskfarm", self.facade)
        self.workers = workers
        self.idle_sleep = idle_sleep
        self._processes: list = []

    @property
    def address(self) -> tuple[str, int]:
        return self.rmi.host, self.rmi.port

    def submit(self, problem: Problem) -> int:
        return self.facade.submit(problem)

    def start(self) -> None:
        """Launch the donor processes."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        for i in range(self.workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    self.rmi.host,
                    self.rmi.port,
                    f"proc-{i}",
                    self.idle_sleep,
                    self.prefetch,
                    self.pool_workers,
                ),
                # Daemonic processes may not have children: a pooled
                # donor spawns its own worker processes.
                daemon=self.pool_workers <= 1,
            )
            proc.start()
            self._processes.append(proc)

    def wait(self, problem_id: int, timeout: float = 120.0) -> Any:
        """Block until *problem_id* completes; returns its final result.

        Raises ``RuntimeError`` if the problem fails (poison unit) and
        ``TimeoutError`` on the deadline.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.facade.status_name(problem_id)
            if status == ProblemStatus.COMPLETE.value:
                return self.facade.final_result(problem_id)
            if status == ProblemStatus.FAILED.value:
                raise RuntimeError(
                    f"problem {problem_id} failed: "
                    f"{self.facade.failure_reason(problem_id)}"
                )
            time.sleep(0.02)
        raise TimeoutError(f"problem {problem_id} did not complete in {timeout}s")

    def shutdown(self) -> None:
        for proc in self._processes:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._processes.clear()
        self.rmi.close()
        self.data_channel.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
