"""SimCluster: the paper's deployment as a discrete-event simulation.

Drives the *real* :class:`~repro.core.server.TaskFarmServer` (same
scheduling code as the live cluster) under virtual time.  Each donor
machine is a simulation process executing the donor protocol:

    request work → download unit → compute → upload result → repeat

Compute time is ``unit cost / machine's sampled rate``; transfers
serialize through the shared server link.  Algorithms can really
execute (results are genuine, used by the application tests) or be
skipped in trace mode (cost-only payloads, used by the large speedup
sweeps where only timing matters).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.sim.chaos import FaultPlan
from repro.cluster.sim.engine import (
    Process,
    SimEvent,
    Simulator,
    Timeout,
    WaitEvent,
)
from repro.cluster.sim.machines import MachineSpec
from repro.cluster.sim.network import NetworkConfig, NetworkModel
from repro.core.blobs import DEFAULT_CACHE_BYTES, BlobCache, iter_blob_refs, resolve_payload
from repro.core.journal import JournalWriter, MemoryStore, compact, recover, torn_tail
from repro.core.integrity import IntegrityPolicy
from repro.core.problem import Problem
from repro.core.scheduler import GranularityPolicy
from repro.core.server import Assignment, PipelineConfig, TaskFarmServer
from repro.core.workunit import WorkResult
from repro.obs import Observability, unitstats
from repro.util.rng import spawn_rng


@dataclass(slots=True)
class SimReport:
    """Outcome of one simulated run."""

    sim_time: float
    makespans: dict[int, float]
    results: dict[int, Any]
    completed: bool
    machine_units: dict[str, int] = field(default_factory=dict)
    machine_busy: dict[str, float] = field(default_factory=dict)
    bytes_transferred: int = 0

    def utilization(self, machine_id: str) -> float:
        """Busy fraction of one machine over the whole run."""
        if self.sim_time <= 0:
            return 0.0
        return min(1.0, self.machine_busy.get(machine_id, 0.0) / self.sim_time)

    @property
    def mean_utilization(self) -> float:
        if not self.machine_busy:
            return 0.0
        return sum(self.utilization(m) for m in self.machine_busy) / len(self.machine_busy)


class SimCluster:
    """A simulated deployment of the task farm.

    Parameters
    ----------
    machines:
        The donor pool (speeds, availability, churn sessions).
    policy:
        Granularity policy for the embedded server.
    lease_timeout:
        Server lease duration in simulated seconds.
    network:
        Shared-link parameters; defaults to the paper's 100 Mbit/s LAN.
    seed:
        Root seed for every stochastic element (availability noise).
    execute:
        When True the Algorithm really runs (results are genuine); when
        False only the unit's ``cost_hint`` is charged (trace mode).
    idle_poll:
        How long an idle donor waits before asking again — the paper's
        clients poll, they are not pushed to.
    integrity:
        Replication/quorum policy for the embedded server (see
        :class:`~repro.core.integrity.IntegrityPolicy`).
    chaos:
        A seeded :class:`~repro.cluster.sim.chaos.FaultPlan`; ``None``
        runs fault-free.
    donor_cache_bytes:
        Byte budget of each simulated donor's shared-blob cache,
        mirroring the live :class:`~repro.core.client.DonorClient`.
    pipeline:
        When set, the embedded server runs this
        :class:`~repro.core.server.PipelineConfig` and every machine
        uses the pipelined donor protocol: while unit N computes, a
        forked process downloads unit N+1, so the simulator reproduces
        the live prefetch runtime's download/compute overlap.  ``None``
        (the default) keeps the historical serial protocol.
    """

    def __init__(
        self,
        machines: list[MachineSpec],
        policy: GranularityPolicy | None = None,
        lease_timeout: float = 600.0,
        network: NetworkConfig | None = None,
        seed: int = 0,
        execute: bool = True,
        idle_poll: float = 5.0,
        obs: Observability | None = None,
        integrity: IntegrityPolicy | None = None,
        chaos: FaultPlan | None = None,
        max_unit_attempts: int = 5,
        donor_cache_bytes: int = DEFAULT_CACHE_BYTES,
        pipeline: PipelineConfig | None = None,
        tenants: list | None = None,
    ):
        if not machines:
            raise ValueError("need at least one machine")
        ids = [m.machine_id for m in machines]
        if len(set(ids)) != len(ids):
            raise ValueError("machine ids must be unique")
        self.machines = list(machines)
        # One observability bundle shared by the engine, the network
        # model and the embedded server — the simulated mirror of the
        # live cluster's single registry.
        self.obs = obs or Observability()
        self.sim = Simulator(meters=self.obs.meters)
        self._policy = policy
        self._lease_timeout = lease_timeout
        self._max_unit_attempts = max_unit_attempts
        self.integrity = integrity
        self.chaos = chaos
        self.pipeline = pipeline
        self.server = self._make_server()
        # Under chaos the server journals every mutation to an
        # in-memory segment store, so every restart is a genuine
        # bytes-level recovery drill (same framing code as DirStore).
        self._journal_enabled = chaos is not None and chaos.journal_recovery
        self.journal_store = MemoryStore() if self._journal_enabled else None
        self._checkpoint_bytes: bytes | None = None
        if self._journal_enabled:
            self.server.journal = JournalWriter(
                self.journal_store, meters=self.obs.meters
            )
        # Optional multi-tenant job gateway: fair-share dispatch +
        # admission control in front of the same server, driven by
        # virtual time.  Created after the journal writer so tenant
        # definitions land in the journal when recovery drills run.
        self.gateway = None
        if tenants:
            if chaos is not None and not self._journal_enabled:
                raise ValueError(
                    "a gateway under chaos requires journal_recovery=True "
                    "(the legacy checkpoint handoff cannot carry jobs)"
                )
            from repro.core.gateway import JobGateway

            self.gateway = JobGateway(self.server, tenants)
        self.network = NetworkModel(self.sim, network, meters=self.obs.meters)
        self.seed = seed
        self.execute = execute
        self.idle_poll = idle_poll
        self._machine_units: dict[str, int] = {m.machine_id: 0 for m in machines}
        self._machine_busy: dict[str, float] = {m.machine_id: 0.0 for m in machines}
        # Donor blob caches, keyed by machine — like an on-disk cache,
        # they survive sessions, crashes and server restarts.  Cache
        # traffic is metered straight into the shared registry (a donor
        # process interleaves with others, so thread-local unit stats
        # would misattribute it).
        self.donor_cache_bytes = donor_cache_bytes
        self._blob_caches: dict[str, BlobCache] = {}
        self._active_session: dict[str, int] = {}
        self._pending_submissions = 0
        self._problem_ids: list[int] = []
        # Chaos respawns get fresh session indices above any real ones.
        self._chaos_sessions = 1 << 16
        # Closed-world pool: bound the liar count to the configured
        # fraction (quorum voting needs the honest donors to outnumber
        # the liars; a per-donor coin cannot guarantee that).
        self._byzantine: frozenset[str] = (
            chaos.byzantine_set(ids) if chaos is not None else frozenset()
        )

    def _make_server(self) -> TaskFarmServer:
        return TaskFarmServer(
            policy=self._policy,
            lease_timeout=self._lease_timeout,
            obs=self.obs,
            integrity=self.integrity,
            max_unit_attempts=self._max_unit_attempts,
            pipeline=self.pipeline,
        )

    # ------------------------------------------------------------------

    def submit(self, problem: Problem, at: float = 0.0) -> int:
        """Submit now (``at=0``) or at a future simulated time.

        "Now" is the current virtual time — 0 before the first
        :meth:`run`, later when submitting between runs (a drained
        cluster accepts further problems; donor blob caches stay warm).
        """
        pid = problem.problem_id
        self._problem_ids.append(pid)
        if at <= 0.0:
            self.server.submit(problem, now=self.sim.now)
        else:
            # Deferred submission: becomes a simulation event, so
            # donors idle until it lands.
            self._pending_submissions += 1

            def land() -> None:
                self.server.submit(problem, now=self.sim.now)
                self._pending_submissions -= 1

            self.sim.schedule(at, land)
        return pid

    def submit_job(self, tenant_id: str, problem: Problem, at: float = 0.0) -> int:
        """Submit through the job gateway (requires ``tenants=``).

        Mirrors :meth:`submit`: immediate at the current virtual time,
        or deferred as a simulation event.  Returns the problem id (the
        job id is recoverable via ``gateway`` introspection); donors
        keep polling while jobs sit queued behind tenant quotas.
        """
        if self.gateway is None:
            raise RuntimeError("SimCluster was built without tenants")
        pid = problem.problem_id
        self._problem_ids.append(pid)
        if at <= 0.0:
            self.gateway.submit_job(tenant_id, problem, now=self.sim.now)
        else:
            self._pending_submissions += 1

            def land() -> None:
                self.gateway.submit_job(tenant_id, problem, now=self.sim.now)
                self._pending_submissions -= 1

            self.sim.schedule(at, land)
        return pid

    def _pump_gateway(self) -> None:
        if self.gateway is not None:
            self.gateway.pump(self.sim.now)

    def _all_done(self) -> bool:
        """No active problems *and* none still scheduled to arrive."""
        return (
            self._pending_submissions == 0
            and self.server.all_complete()
            and (self.gateway is None or not self.gateway.has_open_jobs())
        )

    def status_snapshot(self) -> dict:
        """Mid-run JSON snapshot at the current virtual time.

        Pause the simulation with ``run(until=...)``, call this, resume
        with another ``run()`` — the simulated twin of the live
        facade's ``status_json``.
        """
        from repro.core.status import snapshot_dict

        return snapshot_dict(self.server, self.sim.now, gateway=self.gateway)

    def status_report(self) -> str:
        """Human-readable status table at the current virtual time."""
        from repro.core.status import render_status

        return render_status(self.server, self.sim.now)

    def run(self, until: float | None = None) -> SimReport:
        """Spawn every machine process and drain the simulation."""
        for spec in self.machines:
            sessions = spec.sessions or ((0.0, float("inf")),)
            for session_index, (start, end) in enumerate(sessions):
                self.sim.spawn(
                    self._spawn_session(spec, end, session_index), delay=start
                )
        # Periodic lease sweep, as the live server's timer thread does.
        def sweep() -> None:
            self.server.expire_leases(self.sim.now)
            self._pump_gateway()

        self.sim.every(
            max(1.0, self.server.leases.timeout / 4),
            sweep,
            until=self._all_done,
        )
        if self._journal_enabled and self.chaos.checkpoint_every is not None:
            self.sim.every(
                self.chaos.checkpoint_every,
                self._checkpoint_server,
                until=self._all_done,
            )
        if self.chaos is not None and self.chaos.server_restart_at is not None:
            self.sim.schedule(self.chaos.server_restart_at, self._restart_server)
        sim_time = self.sim.run(until=until)

        completed = self.server.all_complete()
        makespans: dict[int, float] = {}
        results: dict[int, Any] = {}
        for pid in self._problem_ids:
            try:
                makespans[pid] = self.server.makespan(pid)
                results[pid] = self.server.final_result(pid)
            except RuntimeError:
                pass  # unfinished/cancelled under an `until` horizon
            except KeyError:
                pass  # gateway job still queued: the server never saw it
        return SimReport(
            sim_time=sim_time,
            makespans=makespans,
            results=results,
            completed=completed,
            machine_units=dict(self._machine_units),
            machine_busy=dict(self._machine_busy),
            bytes_transferred=self.network.bytes_transferred,
        )

    # ------------------------------------------------------------------

    def _checkpoint_server(self) -> None:
        """Periodic v3 checkpoint: snapshot at the journal boundary,
        then rotate and compact the segments it covers.

        Synchronous in virtual time, so the snapshot and its recorded
        LSN describe exactly the same state — the sim twin of the live
        facade checkpointing under its lock.
        """
        from repro.core.checkpoint import dumps_checkpoint

        writer = self.server.journal
        lsn = writer.last_lsn
        self._checkpoint_bytes = dumps_checkpoint(
            self.server, self.sim.now, journal_lsn=lsn, gateway=self.gateway
        )
        writer.rotate()
        compact(self.journal_store, lsn)

    def _restart_server(self) -> None:
        """Chaos event: kill the server, recover it from real bytes.

        With journaling (the default under chaos) this is a full
        recovery drill: the dying server's in-memory state is simply
        dropped, a torn tail is optionally chopped off the journal, and
        a fresh server rebuilds itself from ``last checkpoint bytes +
        journal replay`` — the very path a live ``kill -9`` exercises.
        Leases die with the server; its donors' retries and the lease
        sweep pick up the pieces, as the live
        :class:`~repro.rmi.reconnect.ReconnectingPort` drives.
        ``journal_recovery=False`` keeps the legacy in-memory
        checkpoint handoff.
        """
        if self._all_done():
            return
        now = self.sim.now
        if not self._journal_enabled:
            from repro.core.checkpoint import dumps_checkpoint, loads_checkpoint

            blob = dumps_checkpoint(self.server, now)
            fresh = self._make_server()
            loads_checkpoint(blob, fresh, now)
            self.server = fresh
            return
        if self.chaos.torn_tail_bytes:
            torn_tail(self.journal_store, self.chaos.torn_tail_bytes)
        fresh = self._make_server()
        fresh_gateway = None
        if self.gateway is not None:
            from repro.core.gateway import JobGateway

            # A fresh, empty gateway attached to the fresh server;
            # recover() restores the checkpointed gateway state into it
            # and replays gateway.* journal records through it.
            fresh_gateway = JobGateway(fresh)
        recover(
            fresh,
            self.journal_store,
            checkpoint=self._checkpoint_bytes,
            now=now,
            gateway=fresh_gateway,
        )
        self.server = fresh
        if fresh_gateway is not None:
            self.gateway = fresh_gateway
            # Queued jobs freed slots may start immediately.
            self._pump_gateway()

    def _spawn_session(
        self, spec: MachineSpec, session_end: float, session_index: int
    ) -> Process:
        """One donor session: register, run ``cores`` lanes, deregister.

        The machine registers *once*, advertising ``slots=cores``; a
        single-core machine runs its one lane inline.  ``self.server``
        is read dynamically throughout — a chaos restart swaps the
        server object out from under running donors, exactly as a live
        restart does.
        """
        sim = self.sim
        donor_id = spec.machine_id
        self.server.register_donor(donor_id, sim.now, slots=spec.cores)
        self._active_session[donor_id] = session_index
        try:
            if spec.cores == 1:
                yield from self._lane_process(spec, session_end, session_index)
            else:
                lanes = [SimEvent(sim) for _ in range(spec.cores)]
                for lane, done in enumerate(lanes):
                    sim.spawn(
                        self._lane_process(
                            spec, session_end, session_index, lane, done
                        )
                    )
                for done in lanes:
                    yield WaitEvent(done)
        finally:
            # Leaving (or completing) deregisters; the server requeues
            # anything this donor still held.  Guard against a later
            # session of the same machine having already re-registered
            # (and against chaos crashes, which skip the goodbye).
            if self._active_session.get(donor_id) == session_index:
                self.server.deregister_donor(donor_id, sim.now)
                del self._active_session[donor_id]

    def _donor_cache(self, donor_id: str) -> BlobCache:
        cache = self._blob_caches.get(donor_id)
        if cache is None:
            meters = self.obs.meters
            cache = BlobCache(
                self.donor_cache_bytes,
                sink=lambda name, amount: meters.counter(name).inc(amount),
            )
            self._blob_caches[donor_id] = cache
        return cache

    def _download_unit(self, donor_id: str, assignment: Assignment) -> Process:
        """Move one unit's input across the link and resolve its blobs.

        Returns the payload the algorithm should see.  The inline part
        always crosses the wire; each referenced blob is downloaded
        only on a donor cache miss — the simulated twin of the live
        donor's fetch-on-miss path.  In trace mode (``execute=False``)
        references are tracked for cache accounting but never resolved
        (synthetic trace blobs have no content behind them).
        """
        refs = iter_blob_refs(assignment.payload)
        if not refs:
            yield from self.network.transmit(assignment.input_bytes)
            return assignment.payload
        inline = (
            assignment.inline_bytes
            if assignment.inline_bytes >= 0
            else assignment.input_bytes
        )
        yield from self.network.transmit(inline)
        cache = self._donor_cache(donor_id)
        fetch = (
            # Read self.server at call time: a chaos restart swaps it.
            (lambda ref: self.server.get_shared_blob(assignment.problem_id, ref.key))
            if self.execute
            else None
        )
        objects = {}
        for ref in refs:
            if not cache.contains(ref.key):
                yield from self.network.transmit_blob(ref.size)
            objects[ref.key] = cache.ensure(ref, fetch)
        if not self.execute:
            return assignment.payload
        return resolve_payload(assignment.payload, lambda ref: objects[ref.key])

    def _compute_and_upload(
        self,
        spec: MachineSpec,
        donor_id: str,
        assignment: Assignment,
        payload: Any,
        rng,
        chaos_rng,
        session_end: float,
    ) -> Process:
        """Compute an already-downloaded unit and upload the result.
        Returns False if the session ended mid-compute (unit abandoned)."""
        sim = self.sim
        algorithm = self.server.get_algorithm(assignment.problem_id)
        cost = assignment.cost_hint or algorithm.cost(payload)
        rate = spec.effective_rate(rng)
        duration = cost / rate

        if sim.now + duration > session_end:
            # The owner reclaims the machine before the unit finishes:
            # sleep to the session end and abandon the unit.  The lease
            # will expire and the server reissues it elsewhere.
            remaining = max(0.0, session_end - sim.now)
            self._machine_busy[donor_id] += remaining
            yield Timeout(remaining)
            return False

        yield Timeout(duration)
        self._machine_busy[donor_id] += duration

        extra: dict = {}
        if self.execute:
            with unitstats.collect() as stats:
                value = algorithm.compute(payload)
            if stats:
                extra = {"meters": stats}
            try:
                output_bytes = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception:
                output_bytes = 1024
        else:
            value = None
            output_bytes = max(256, assignment.input_bytes // 16)

        plan = self.chaos
        if plan is not None and donor_id in self._byzantine:
            # Key the corruption coin on the *submission ordinal*, not
            # the process-global problem id: the id counter advances
            # across clusters in one process, and keying on it would
            # make the "same" run draw different coins on replay.
            ordinal = self._problem_ids.index(assignment.problem_id)
            if plan.corrupts_unit(donor_id, ordinal, assignment.unit_id):
                # Byzantine donor: a consistent, donor-specific lie.
                value = plan.corrupted_value(
                    donor_id, ordinal, assignment.unit_id
                )

        deliveries = 1
        if plan is not None:
            if chaos_rng.random() < plan.drop_rate:
                # The result vanishes on the wire; the lease expires
                # and the server reissues the unit elsewhere.
                self._machine_units[donor_id] += 1
                return True
            if chaos_rng.random() < plan.delay_rate:
                yield Timeout(float(chaos_rng.uniform(0.0, plan.max_delay)))
            if chaos_rng.random() < plan.dup_rate:
                deliveries = 2

        yield from self.network.transmit(output_bytes)
        result = WorkResult(
            problem_id=assignment.problem_id,
            unit_id=assignment.unit_id,
            value=value,
            donor_id=donor_id,
            compute_seconds=duration,
            items=assignment.items,
            output_bytes=output_bytes,
            extra=extra,
        )
        for _ in range(deliveries):
            self.server.submit_result(result, sim.now)
            self._pump_gateway()
            if (
                plan is not None
                and plan.ack_crash_rate > 0
                and self._journal_enabled
                and chaos_rng.random() < plan.ack_crash_rate
            ):
                # Crash point *between* the journal append and the
                # donor's ack: the fold is durable but the donor never
                # heard so.  It retries against the recovered server,
                # which must shed the retry as a duplicate —
                # exactly-once folding across the crash.  (The rate
                # guard keeps the rng stream untouched for plans that
                # never ack-crash, preserving their fault schedules.)
                self._restart_server()
                self.server.submit_result(result, sim.now)
                self._pump_gateway()
        self._machine_units[donor_id] += 1
        return True

    def _fetch_assignment(
        self, spec: MachineSpec, session_end: float, session_index: int
    ) -> Process:
        """Control round trip + request + download, as one step.

        Returns ``(assignment, payload)``, or ``(None, None)`` when the
        server was idle.  Returns ``None`` when the caller should go
        round again at once: the session ended during the round trip,
        or a restarted server forgot us — re-registered here, as the
        live ReconnectingPort's on_reconnect hook does.
        """
        sim = self.sim
        donor_id = spec.machine_id
        yield from self.network.control_roundtrip()
        if sim.now >= session_end:
            return None
        try:
            assignment = self.server.request_work(donor_id, sim.now)
        except KeyError:
            self.server.register_donor(donor_id, sim.now, slots=spec.cores)
            self._active_session[donor_id] = session_index
            return None
        if assignment is None:
            return None, None
        payload = yield from self._download_unit(donor_id, assignment)
        return assignment, payload

    def _prefetch_process(
        self,
        donor_id: str,
        session_index: int,
        box: list,
        event: SimEvent,
    ) -> Process:
        """Forked download of the *next* unit, overlapping compute.

        Fills ``box[0]`` with ``(assignment, payload)`` and fires
        *event* when done.  Aborts (leaving ``(None, None)``) when the
        session is no longer current — a dead donor's prefetch must not
        resurrect its registration — or when the server has no work.  A
        restarted server (KeyError) is also left for the main loop's
        synchronous path to re-register.
        """
        try:
            if self._active_session.get(donor_id) != session_index:
                return
            yield from self.network.control_roundtrip()
            if self._active_session.get(donor_id) != session_index:
                return
            try:
                assignment = self.server.request_work(donor_id, self.sim.now)
            except KeyError:
                return
            if assignment is None:
                return
            payload = yield from self._download_unit(donor_id, assignment)
            box[0] = (assignment, payload)
        finally:
            event.fire()

    def _lane_process(
        self,
        spec: MachineSpec,
        session_end: float,
        session_index: int,
        lane: int | None = None,
        done: SimEvent | None = None,
    ) -> Process:
        """One compute lane (core) of a donor session: the protocol loop.

        When the cluster is pipelined, a forked :meth:`_prefetch_process`
        downloads unit N+1 while unit N computes; joining an
        already-fired prefetch is a *hit* (compute never stalled),
        otherwise the wait is metered as donor idle gap.  Every lane's
        leases count against the one donor registration, whose depth
        gate the server scaled by ``slots``
        (:meth:`~repro.core.server.PipelineConfig.depth_for`).  The
        lanes of a multi-core machine draw rng/chaos streams keyed with
        ``"lane"``; the inline lane of a single-core machine
        (``lane=None``) keeps the un-laned keys, so its schedules replay
        byte-identically.  A lane observing that its session is no
        longer current (crash or replacement) exits quietly.
        """
        sim = self.sim
        meters = self.obs.meters
        donor_id = spec.machine_id
        key = () if lane is None else ("lane", lane)
        rng = spawn_rng(self.seed, "machine", donor_id, session_index, *key)
        chaos_rng = (
            self.chaos.rng_for(donor_id, session_index, *key)
            if self.chaos is not None
            else None
        )
        pipelined = self.pipeline is not None
        slot: tuple[list, SimEvent] | None = None
        try:
            while True:
                if sim.now >= session_end or self._all_done():
                    return
                if self._active_session.get(donor_id) != session_index:
                    return  # machine crashed or was replaced
                if slot is not None:
                    box, event = slot
                    slot = None
                    if event.fired:
                        meters.counter("farm.pipeline.prefetch.hits").inc()
                    else:
                        start = sim.now
                        yield WaitEvent(event)
                        gap = sim.now - start
                        meters.counter("farm.pipeline.prefetch.misses").inc()
                        if gap > 0:
                            meters.counter(
                                "farm.pipeline.idle.gap.seconds"
                            ).inc(gap)
                    fetched = box[0]
                else:
                    if pipelined:
                        meters.counter("farm.pipeline.prefetch.misses").inc()
                    fetched = yield from self._fetch_assignment(
                        spec, session_end, session_index
                    )
                    if fetched is None:
                        continue
                assignment, payload = fetched
                if assignment is None:
                    if self._all_done():
                        return
                    yield Timeout(self.idle_poll)
                    continue
                if pipelined:
                    # Fork the download of the next unit, then compute
                    # this one — the overlap the pipeline exists for.
                    box = [(None, None)]
                    event = SimEvent(sim)
                    sim.spawn(
                        self._prefetch_process(
                            donor_id, session_index, box, event
                        )
                    )
                    slot = (box, event)
                finished = yield from self._compute_and_upload(
                    spec, donor_id, assignment, payload, rng, chaos_rng, session_end
                )
                if not finished:
                    return  # left the pool mid-compute
                if (
                    self.chaos is not None
                    and chaos_rng.random() < self.chaos.crash_rate
                    and self._active_session.get(donor_id) == session_index
                ):
                    # Hard host crash: no deregistration (the leases
                    # must expire on their own), every lane dies with
                    # the machine — the currency check above stops the
                    # siblings — and it is back after the downtime as a
                    # fresh session.
                    self._chaos_sessions += 1
                    self.sim.spawn(
                        self._spawn_session(
                            spec, session_end, self._chaos_sessions
                        ),
                        delay=self.chaos.crash_downtime,
                    )
                    self._active_session.pop(donor_id, None)
                    return
        finally:
            if done is not None:
                done.fire()
