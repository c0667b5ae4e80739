"""Multi-tenant job gateway: admission control + weighted fair share.

The paper's farm served one scientist; the production north star is
many concurrent submitters sharing one donor fleet.  This module is the
front door that makes that safe:

* **Tenants** (:class:`TenantConfig`) carry a scheduling *weight* and
  quotas — max concurrently running problems, max pending jobs, max
  in-flight work items.
* **Admission control** is a bounded queue with explicit backpressure:
  a submit beyond ``max_pending`` is rejected with a ``retry_after``
  hint (:class:`AdmissionError`) instead of growing without bound.
* **Jobs** get a real lifecycle: ``submit → queued → running →
  done/failed/cancelled``, with :meth:`JobGateway.cancel_job` releasing
  leases and routing late results through the server's existing
  exactly-once stale-refusal path.
* The **weighted fair-share scheduler** (:class:`WeightedFairShare`)
  replaces the server's priority-tuple round robin as the
  *cross-problem* dispatch policy: tenants are served in order of
  virtual time — delivered work items (plus items currently in flight)
  divided by weight — so a tenant's long-run share of the fleet tracks
  its weight, and no tenant's problems can starve another's.

Durability: every gateway mutation that must survive a crash (tenant
definition, job submit, job start, job cancel) is journaled through the
server's write-ahead journal (``gateway.*`` record kinds; see
:mod:`repro.core.journal`), and the whole gateway state rides in
checkpoint VERSION 4 — a queued job survives a ``kill -9`` with its
pristine pickled Problem and is started by the recovered server.

Fair-share accounting is charged at *fold* time (completed items),
which the journal already records, so a recovered gateway's virtual
times are rebuilt exactly; the in-flight component is recomputed live
from the authoritative :class:`~repro.core.faults.LeaseTable` and
naturally resets across a crash (the leases died with the server).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.problem import Problem
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.obs import LATENCY_BUCKETS
from repro.util.config import ConfigFile, ConfigError


class AdmissionError(RuntimeError):
    """A tenant's bounded admission queue is full.

    Carries ``retry_after`` (seconds): the backpressure contract is
    *reject with a hint*, never queue without bound.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def open(self) -> bool:
        """Still owed work (queued or running)."""
        return self in (JobStatus.QUEUED, JobStatus.RUNNING)


#: Bytes a ``gateway.job.submit`` record must leave under the journal's
#: frame cap.  The ``problem.submit`` record the job's start writes
#: carries the same pristine problem with fewer fields; only its LSN can
#: pickle longer (by at most a few bytes), so a job the journal admits
#: can never be refused at start, after its start record.
SUBMIT_HEADROOM = 1024

#: The job status a finished problem's status becomes.
_JOB_ENDINGS = {
    ProblemStatus.COMPLETE: JobStatus.DONE,
    ProblemStatus.FAILED: JobStatus.FAILED,
    ProblemStatus.CANCELLED: JobStatus.CANCELLED,
}


@dataclass(frozen=True, slots=True)
class TenantConfig:
    """One tenant's scheduling weight and quotas.

    Parameters
    ----------
    tenant_id:
        Stable name jobs are submitted under.
    weight:
        Fair-share weight; a weight-4 tenant receives ~4x the delivered
        work items of a weight-1 tenant while both have eligible work.
    max_running:
        Problems of this tenant running concurrently on the server.
    max_pending:
        Bound of the admission queue; submits beyond it are rejected
        with :class:`AdmissionError`.
    max_inflight_items:
        Cap on work items leased to donors for this tenant at once
        (``None`` = uncapped).  A tenant at its cap is skipped by the
        dispatch pass until results come back.
    """

    tenant_id: str
    weight: float = 1.0
    max_running: int = 4
    max_pending: int = 16
    max_inflight_items: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.weight > 0:
            raise ValueError(f"tenant {self.tenant_id!r}: weight must be > 0")
        if self.max_running < 1:
            raise ValueError(f"tenant {self.tenant_id!r}: max_running must be >= 1")
        if self.max_pending < 0:
            raise ValueError(f"tenant {self.tenant_id!r}: max_pending must be >= 0")
        if self.max_inflight_items is not None and self.max_inflight_items < 1:
            raise ValueError(
                f"tenant {self.tenant_id!r}: max_inflight_items must be >= 1 or None"
            )


_TENANT_FIELDS = ("weight", "max_running", "max_pending", "max_inflight_items")


def parse_tenants(config: ConfigFile) -> list[TenantConfig]:
    """Parse ``tenant.<id>.<field> = value`` keys into tenant configs.

    Example file::

        tenant.alice.weight = 1
        tenant.bob.weight = 2
        tenant.bob.max_running = 3
        tenant.carol.weight = 4
        tenant.carol.max_inflight_items = 500

    Unknown ``tenant.*`` fields fail loudly; non-``tenant.`` keys are
    ignored so the file can share space with other server settings.
    """
    names: list[str] = []
    for key in config:
        if not key.startswith("tenant."):
            continue
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in _TENANT_FIELDS:
            raise ConfigError(
                f"bad tenant key {key!r}: expected "
                f"tenant.<id>.<{('|'.join(_TENANT_FIELDS))}>"
            )
        if parts[1] not in names:
            names.append(parts[1])
    tenants = []
    for name in names:
        prefix = f"tenant.{name}."
        kwargs: dict[str, Any] = {
            "weight": config.get_float(prefix + "weight", 1.0),
            "max_running": config.get_int(prefix + "max_running", 4),
            "max_pending": config.get_int(prefix + "max_pending", 16),
        }
        if prefix + "max_inflight_items" in config:
            kwargs["max_inflight_items"] = config.get_int(
                prefix + "max_inflight_items"
            )
        try:
            tenants.append(TenantConfig(tenant_id=name, **kwargs))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return tenants


class Job:
    """One submitted job and its lifecycle bookkeeping."""

    __slots__ = (
        "job_id",
        "tenant_id",
        "problem",
        "problem_id",
        "status",
        "submitted_at",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        job_id: int,
        tenant_id: str,
        problem: Problem | None,
        problem_id: int,
        submitted_at: float,
    ):
        self.job_id = job_id
        self.tenant_id = tenant_id
        # Held only while QUEUED; the server owns the Problem once the
        # job starts (and recovery re-creates it from its own records).
        self.problem = problem
        self.problem_id = problem_id
        self.status = JobStatus.QUEUED
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None


class WeightedFairShare:
    """Cross-problem dispatch by per-tenant virtual time.

    Conforms to the server's dispatch-policy interface
    (``order``/``served``/``completed``; see
    :class:`~repro.core.scheduler.ProblemRoundRobin`).  Each tenant's
    virtual time is::

        vtime = (delivered_items + inflight_items) / weight

    where *delivered_items* is charged on every accepted fold (the
    journal-durable quantity, rebuilt exactly on recovery) and
    *inflight_items* is recomputed each pass from the live lease table
    (charging work already handed out keeps a burst from overshooting
    its share before any result lands).  Tenants are offered in
    ascending vtime; a tenant at its ``max_inflight_items`` cap is
    skipped entirely.

    Within a tenant, problems rotate in a cycle seeded by ``(priority,
    problem_id)`` — priority orders the cycle but never excludes: the
    rotation visits *every* problem, so a sustained stream of
    high-priority submissions cannot starve a low-priority problem (the
    regression the old strict priority-class round robin had).
    """

    #: Pseudo-tenant charged for problems submitted around the gateway
    #: (direct ``server.submit``), so mixed usage stays well-defined.
    DIRECT = "(direct)"

    def __init__(self) -> None:
        self._server: TaskFarmServer | None = None
        self._weights: dict[str, float] = {}
        self._caps: dict[str, int | None] = {}
        self._completed: dict[str, float] = {}
        self._by_problem: dict[int, str] = {}
        self._last_pid: dict[str, int] = {}

    def attach(self, server: TaskFarmServer) -> None:
        """Bind to *server* (lease table for in-flight accounting,
        meter registry for per-tenant counters)."""
        self._server = server

    def set_tenant(
        self, tenant_id: str, weight: float, max_inflight_items: int | None = None
    ) -> None:
        self._weights[tenant_id] = weight
        self._caps[tenant_id] = max_inflight_items
        self._completed.setdefault(tenant_id, 0.0)

    def bind(self, problem_id: int, tenant_id: str) -> None:
        """Attribute *problem_id*'s work to *tenant_id* from now on."""
        self._by_problem[problem_id] = tenant_id

    def tenant_of(self, problem_id: int) -> str:
        return self._by_problem.get(problem_id, self.DIRECT)

    def delivered_items(self, tenant_id: str) -> float:
        return self._completed.get(tenant_id, 0.0)

    def rebuild(self, completed: dict[str, float]) -> None:
        """Overwrite the delivered-items account (recovery reconcile)."""
        for tenant_id, items in completed.items():
            self._completed[tenant_id] = float(items)

    # -- the dispatch-policy interface ----------------------------------

    def order(self, problems: list[tuple[int, int]]) -> list[int]:
        if not problems:
            return []
        groups: dict[str, list[tuple[int, int]]] = {}
        for pid, priority in problems:
            groups.setdefault(self.tenant_of(pid), []).append((priority, pid))
        inflight = self._inflight_items(pid for pid, _priority in problems)
        ranked = []
        for tenant_id, prio_pids in groups.items():
            cap = self._caps.get(tenant_id)
            flying = inflight.get(tenant_id, 0)
            if cap is not None and flying >= cap:
                continue  # over its in-flight budget until results land
            weight = self._weights.get(tenant_id, 1.0)
            vtime = (self._completed.get(tenant_id, 0.0) + flying) / weight
            ranked.append((vtime, tenant_id, prio_pids))
        ranked.sort(key=lambda r: (r[0], r[1]))
        out: list[int] = []
        for _vtime, tenant_id, prio_pids in ranked:
            prio_pids.sort()
            ids = [pid for _prio, pid in prio_pids]
            last = self._last_pid.get(tenant_id)
            if last in ids:
                # Rotate across the *whole* cycle (not a priority
                # class): every problem gets a turn — starvation-free.
                pivot = ids.index(last) + 1
                ids = ids[pivot:] + ids[:pivot]
            out.extend(ids)
        return out

    def served(self, problem_id: int) -> None:
        self._last_pid[self.tenant_of(problem_id)] = problem_id

    def completed(self, problem_id: int, items: int) -> None:
        """Charge *items* delivered for the problem's tenant (called by
        the server on every accepted fold)."""
        tenant_id = self.tenant_of(problem_id)
        self._completed[tenant_id] = self._completed.get(tenant_id, 0.0) + items
        if self._server is not None:
            meters = self._server.obs.meters
            meters.counter(f"farm.tenant.{tenant_id}.items.completed").inc(items)

    # -- internals -------------------------------------------------------

    def _inflight_items(self, problem_ids: Iterable[int]) -> dict[str, int]:
        """Items currently leased out, per tenant, summed over
        *problem_ids* from the lease table's per-problem counts (each
        replicated copy is real work and counts).  Only running
        problems hold leases, so the running ids cover every lease."""
        out: dict[str, int] = {}
        if self._server is None:
            return out
        leases = self._server.leases
        for pid in problem_ids:
            items = leases.in_flight(pid)[1]
            if items:
                tenant_id = self.tenant_of(pid)
                out[tenant_id] = out.get(tenant_id, 0) + items
        return out


class _TenantState:
    """Gateway-private bookkeeping for one tenant."""

    __slots__ = (
        "config",
        "pending",
        "running",
        "jobs_done",
        "jobs_failed",
        "jobs_cancelled",
        "rejected",
        "wait_total",
        "wait_count",
        "wait_max",
    )

    def __init__(self, config: TenantConfig):
        self.config = config
        self.pending: deque[Job] = deque()
        self.running: set[int] = set()
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.rejected = 0
        self.wait_total = 0.0
        self.wait_count = 0
        self.wait_max = 0.0


class JobGateway:
    """The multi-tenant front door of a :class:`TaskFarmServer`.

    Constructing a gateway installs its :class:`WeightedFairShare`
    scheduler as the server's cross-problem dispatch policy.  All
    methods follow the server's clock-free convention (every mutation
    takes ``now``); thread safety and wall clocks are the wrapping
    facade's job, exactly as for the server itself.

    Call :meth:`pump` after any event that can finish a problem
    (result folds, failures, lease expiry): it reconciles finished jobs
    and promotes queued ones into freed running slots.
    """

    def __init__(
        self,
        server: TaskFarmServer,
        tenants: Iterable[TenantConfig] = (),
        retry_after: float = 5.0,
    ):
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        self.server = server
        self.retry_after = retry_after
        self.scheduler = WeightedFairShare()
        self.scheduler.attach(server)
        server.dispatch = self.scheduler
        self._tenants: dict[str, _TenantState] = {}
        self._jobs: dict[int, Job] = {}
        self._by_problem: dict[int, int] = {}
        self._next_job_id = 1
        self._bind_meters(server.obs.meters)
        for config in tenants:
            self.add_tenant(config, 0.0)

    def _bind_meters(self, meters) -> None:
        """Send the job counters to *meters* (journal replay binds a
        scratch registry, as for :meth:`TaskFarmServer._bind_obs`)."""
        self._m_submitted = meters.counter("farm.gateway.jobs.submitted")
        self._m_started = meters.counter("farm.gateway.jobs.started")
        self._m_ended = {
            status: meters.counter(f"farm.gateway.jobs.{status.value}")
            for status in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)
        }
        self._m_rejected = meters.counter("farm.gateway.jobs.rejected")
        self._g_queued = meters.gauge("farm.gateway.jobs.queued")
        self._g_running = meters.gauge("farm.gateway.jobs.running")
        self._h_queue_wait = meters.histogram(
            "farm.gateway.queue.wait.seconds", LATENCY_BUCKETS
        )

    def _journal(self, kind: str, now: float, **fields: Any) -> None:
        self.server._journal(kind, now, **fields)

    def _sync_gauges(self) -> None:
        self._g_queued.set(sum(len(t.pending) for t in self._tenants.values()))
        self._g_running.set(sum(len(t.running) for t in self._tenants.values()))

    # -- tenants ---------------------------------------------------------

    def add_tenant(self, config: TenantConfig, now: float = 0.0) -> None:
        if config.tenant_id in self._tenants:
            raise ValueError(f"tenant {config.tenant_id!r} already exists")
        self.ensure_tenant(config, now)

    def ensure_tenant(self, config: TenantConfig, now: float = 0.0) -> None:
        """Add *config*, or update it in place when the tenant already
        exists (e.g. restored from the journal on a restart whose
        ``--tenants`` file changed the weight)."""
        existing = self._tenants.get(config.tenant_id)
        if existing is not None and existing.config == config:
            return
        self._journal("gateway.tenant", now, config=config)
        self._install_tenant(config)

    def _install_tenant(self, config: TenantConfig) -> None:
        state = self._tenants.get(config.tenant_id)
        if state is None:
            self._tenants[config.tenant_id] = _TenantState(config)
        else:
            state.config = config
        self.scheduler.set_tenant(
            config.tenant_id, config.weight, config.max_inflight_items
        )

    def tenant_ids(self) -> list[str]:
        return sorted(self._tenants)

    # -- job lifecycle ---------------------------------------------------

    def fresh_problem_id(self) -> int:
        """A problem id no current or past job (nor the server) holds.

        Problem ids come from a per-process counter on the *submitter*,
        so two scientists' CLI processes both ship "problem 1"; the
        RMI facade re-keys each incoming job with this at the admission
        boundary instead of bouncing the second scientist.
        """
        taken = set(self._by_problem) | set(self.server._problems)
        return max(taken, default=0) + 1

    def submit_job(self, tenant_id: str, problem: Problem, now: float = 0.0) -> int:
        """Admit *problem* under *tenant_id*; returns the job id.

        Raises :class:`KeyError` for an unknown tenant and
        :class:`AdmissionError` (with ``retry_after``) when the
        tenant's bounded admission queue is full.
        """
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        if problem.problem_id in self._by_problem or (
            problem.problem_id in self.server._problems
        ):
            raise ValueError(f"problem {problem.problem_id} already submitted")
        # The pending bound gates only jobs that would actually have to
        # queue: with a free running slot the job starts immediately, so
        # max_pending=0 means "run-or-reject", not "reject everything".
        if (
            len(tenant.running) >= tenant.config.max_running
            and len(tenant.pending) >= tenant.config.max_pending
        ):
            tenant.rejected += 1
            self._m_rejected.inc()
            raise AdmissionError(
                f"tenant {tenant_id!r} admission queue full "
                f"({len(tenant.pending)}/{tenant.config.max_pending} pending); "
                f"retry in {self.retry_after:g}s",
                retry_after=self.retry_after,
            )
        job_id = self._next_job_id
        self._admit(tenant, job_id, problem, now)
        self._promote(tenant, now)
        self._sync_gauges()
        return job_id

    def _admit(
        self, tenant: _TenantState, job_id: int, problem: Problem, now: float
    ) -> None:
        """Queue a new job under *tenant*."""
        # Journaled while the Problem is pristine (no units cut), so a
        # crashed server restores the queued job byte-for-byte.
        tenant_id = tenant.config.tenant_id
        self._journal(
            "gateway.job.submit",
            now,
            headroom=SUBMIT_HEADROOM,
            job_id=job_id,
            tenant=tenant_id,
            problem=problem,
        )
        job = Job(job_id, tenant_id, problem, problem.problem_id, now)
        self._jobs[job_id] = job
        self._by_problem[job.problem_id] = job_id
        self._next_job_id = max(self._next_job_id, job_id + 1)
        tenant.pending.append(job)
        self._m_submitted.inc()

    def cancel_job(self, job_id: int, now: float = 0.0) -> bool:
        """Cancel a queued or running job; returns False when the job
        had already finished (done/failed/cancelled).

        A running job's problem is cancelled on the server: leases are
        released, donors' slots freed, voting state dropped, and any
        late result is refused through the exactly-once stale path.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        tenant = self._tenants[job.tenant_id]
        if not job.status.open:
            return False
        cancelled = (
            job.status is JobStatus.QUEUED
            or self.server.status(job.problem_id) is ProblemStatus.RUNNING
        )
        if cancelled:
            self._cancel(tenant, job, now)
        else:
            # Finished on the server before this cancel landed:
            # reconcile instead — too late to cancel.
            self._reconcile_job(tenant, job, now)
        self._promote(tenant, now)
        self._sync_gauges()
        return cancelled

    def _cancel(self, tenant: _TenantState, job: Job, now: float) -> None:
        """Cancel an open job: a queued one leaves its queue, a running
        one cancels its problem on the server."""
        self._journal("gateway.job.cancel", now, job_id=job.job_id)
        if job.status is JobStatus.QUEUED:
            tenant.pending.remove(job)
            job.problem = None
        else:
            self.server.cancel_problem(job.problem_id, now)
            tenant.running.discard(job.job_id)
        self._end_job(tenant, job, JobStatus.CANCELLED, now)

    def pump(self, now: float) -> None:
        """Reconcile finished problems into job states and promote
        queued jobs into freed running slots."""
        self.reconcile(now)
        for tenant in self._tenants.values():
            self._promote(tenant, now)
        self._sync_gauges()

    def reconcile(self, now: float) -> None:
        """Fold the terminal status of every running job's finished
        problem into the job.

        Terminal job states are derived here, never journaled, so
        recovery runs this once more after replay.
        """
        for tenant in self._tenants.values():
            for job_id in sorted(tenant.running):
                job = self._jobs[job_id]
                if self.server.status(job.problem_id) is not ProblemStatus.RUNNING:
                    self._reconcile_job(tenant, job, now)

    def _promote(self, tenant: _TenantState, now: float) -> None:
        while tenant.pending and len(tenant.running) < tenant.config.max_running:
            self._start_job(tenant, tenant.pending[0], now)

    def _start_job(self, tenant: _TenantState, job: Job, now: float) -> None:
        """Start a queued job: its Problem goes to the server."""
        # The start record precedes the server's own problem.submit
        # record.  Replaying it submits the problem, and replay then
        # takes that problem.submit record as already applied.
        self._journal("gateway.job.start", now, job_id=job.job_id)
        tenant.pending.remove(job)
        problem = job.problem
        job.problem = None
        job.status = JobStatus.RUNNING
        job.started_at = now
        tenant.running.add(job.job_id)
        self.scheduler.bind(job.problem_id, tenant.config.tenant_id)
        wait = max(0.0, now - job.submitted_at)
        tenant.wait_total += wait
        tenant.wait_count += 1
        tenant.wait_max = max(tenant.wait_max, wait)
        self._h_queue_wait.observe(wait)
        self._m_started.inc()
        self.server.submit(problem, now)

    def _reconcile_job(self, tenant: _TenantState, job: Job, now: float) -> None:
        """Fold a finished problem's terminal status into its job."""
        status = _JOB_ENDINGS[self.server.status(job.problem_id)]
        tenant.running.discard(job.job_id)
        self._end_job(tenant, job, status, now)

    def _end_job(
        self, tenant: _TenantState, job: Job, status: JobStatus, now: float
    ) -> None:
        """Give a job its terminal *status* and count it."""
        job.status = status
        job.finished_at = now
        field = f"jobs_{status.value}"
        setattr(tenant, field, getattr(tenant, field) + 1)
        self._m_ended[status].inc()

    # -- introspection ---------------------------------------------------

    def job_status(self, job_id: int) -> dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        out: dict[str, Any] = {
            "job_id": job.job_id,
            "tenant": job.tenant_id,
            "status": job.status.value,
            "problem_id": job.problem_id,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
        }
        if job.status is not JobStatus.QUEUED:
            try:
                out["progress"] = self.server.progress(job.problem_id)
            except KeyError:  # cancelled while queued on a recovered server
                out["progress"] = 0.0
        if job.status is JobStatus.FAILED:
            out["failure"] = self.server.failure_reason(job.problem_id)
        return out

    def job_result(self, job_id: int) -> Any:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        if job.status is not JobStatus.DONE:
            raise RuntimeError(f"job {job_id} is {job.status.value}, not done")
        return self.server.final_result(job.problem_id)

    def job_ids(self) -> list[int]:
        return sorted(self._jobs)

    def has_open_jobs(self) -> bool:
        return any(job.status.open for job in self._jobs.values())

    def snapshot(self) -> dict[str, Any]:
        """JSON-able per-tenant accounting for repro-status."""
        total_items = sum(
            self.scheduler.delivered_items(t) for t in self._tenants
        )
        tenants = []
        for tenant_id in sorted(self._tenants):
            tenant = self._tenants[tenant_id]
            tenants.append(
                {
                    "tenant": tenant_id,
                    "weight": tenant.config.weight,
                    "max_running": tenant.config.max_running,
                    "max_pending": tenant.config.max_pending,
                    "running": len(tenant.running),
                    "pending": len(tenant.pending),
                    "items_delivered": self.scheduler.delivered_items(tenant_id),
                    "jobs_done": tenant.jobs_done,
                    "jobs_failed": tenant.jobs_failed,
                    "jobs_cancelled": tenant.jobs_cancelled,
                    "rejected": tenant.rejected,
                    "queue_wait_total": tenant.wait_total,
                    "queue_wait_count": tenant.wait_count,
                    "queue_wait_max": tenant.wait_max,
                }
            )
        counts = {status.value: 0 for status in JobStatus}
        for job in self._jobs.values():
            counts[job.status.value] += 1
        return {
            "tenants": tenants,
            "jobs": counts,
            "items_delivered_total": total_items,
        }

    # -- durability ------------------------------------------------------

    def replay(self, record: dict) -> None:
        """Apply one ``gateway.*`` journal record by running the
        transition that wrote it (:func:`repro.core.journal.recover`
        binds scratch sinks, so nothing is counted twice)."""
        kind = record["kind"]
        now = record["now"]
        if kind == "gateway.tenant":
            self._install_tenant(record["config"])
        elif kind == "gateway.job.submit":
            tenant = self._tenants[record["tenant"]]
            self._admit(tenant, record["job_id"], record["problem"], now)
        elif kind in ("gateway.job.start", "gateway.job.cancel"):
            job = self._jobs[record["job_id"]]
            transition = self._start_job if kind.endswith("start") else self._cancel
            transition(self._tenants[job.tenant_id], job, now)
        else:
            raise ValueError(f"unknown gateway journal record kind {kind!r}")

    def dump(self) -> dict[str, Any]:
        """Checkpointable snapshot of the whole gateway (rides inside
        :class:`~repro.core.checkpoint.CheckpointBlob` v4)."""
        return {
            "next_job_id": self._next_job_id,
            "retry_after": self.retry_after,
            "tenants": [
                {
                    "config": tenant.config,
                    "jobs_done": tenant.jobs_done,
                    "jobs_failed": tenant.jobs_failed,
                    "jobs_cancelled": tenant.jobs_cancelled,
                    "rejected": tenant.rejected,
                    "wait_total": tenant.wait_total,
                    "wait_count": tenant.wait_count,
                    "wait_max": tenant.wait_max,
                }
                for tenant in self._tenants.values()
            ],
            "jobs": [
                {
                    "job_id": job.job_id,
                    "tenant": job.tenant_id,
                    # Only a queued job still owns its (pristine) Problem.
                    "problem": job.problem,
                    "problem_id": job.problem_id,
                    "status": job.status.value,
                    "submitted_at": job.submitted_at,
                    "started_at": job.started_at,
                    "finished_at": job.finished_at,
                }
                for job_id, job in sorted(self._jobs.items())
            ],
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Rebuild gateway state from a :meth:`dump` snapshot."""
        if self._jobs or self._tenants:
            raise ValueError("gateway restore requires a fresh gateway")
        self._next_job_id = data["next_job_id"]
        for entry in data["tenants"]:
            self._install_tenant(entry["config"])
            tenant = self._tenants[entry["config"].tenant_id]
            tenant.jobs_done = entry["jobs_done"]
            tenant.jobs_failed = entry["jobs_failed"]
            tenant.jobs_cancelled = entry["jobs_cancelled"]
            tenant.rejected = entry["rejected"]
            tenant.wait_total = entry["wait_total"]
            tenant.wait_count = entry["wait_count"]
            tenant.wait_max = entry["wait_max"]
        for entry in data["jobs"]:
            job = Job(
                entry["job_id"],
                entry["tenant"],
                entry["problem"],
                entry["problem_id"],
                entry["submitted_at"],
            )
            job.status = JobStatus(entry["status"])
            job.started_at = entry["started_at"]
            job.finished_at = entry["finished_at"]
            self._jobs[job.job_id] = job
            self._by_problem[job.problem_id] = job.job_id
            tenant = self._tenants[job.tenant_id]
            if job.status is JobStatus.QUEUED:
                tenant.pending.append(job)  # job-id order == submit order
            else:
                if job.status is JobStatus.RUNNING:
                    tenant.running.add(job.job_id)
                self.scheduler.bind(job.problem_id, job.tenant_id)
        # Folds charge their tenant as they happen; the checkpoint
        # carries them as each problem's items_completed.
        completed: dict[str, float] = {}
        for pid, state in self.server._problems.items():
            tenant_id = self.scheduler.tenant_of(pid)
            completed[tenant_id] = completed.get(tenant_id, 0.0) + state.items_completed
        self.scheduler.rebuild(completed)
