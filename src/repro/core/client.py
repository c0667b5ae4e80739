"""The donor client: fetch a unit, compute it, send the result back.

A donor is deliberately thin — all intelligence lives in the server —
so it can run "as a low priority background service" on any machine, as
in the paper's deployment.  The client talks to the server through a
narrow :class:`ServerPort` interface with two interchangeable
implementations:

* :class:`InProcessServerPort` — direct calls into a local
  :class:`~repro.core.server.TaskFarmServer` (tests, threaded clusters).
* an RMI :class:`~repro.rmi.proxy.RemoteProxy` for the object the live
  cluster exports (duck-typed; see :mod:`repro.cluster.local`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue
import random
import threading
import time
from multiprocessing.pool import ThreadPool
from typing import Any, Callable, Protocol

from repro.core.blobs import (
    DEFAULT_CACHE_BYTES,
    BlobCache,
    BlobRef,
    blob_key,
    fetch_and_resolve,
    iter_blob_refs,
)
from repro.core.problem import Algorithm
from repro.core.server import Assignment, TaskFarmServer
from repro.core.workunit import WorkResult
from repro.obs import unitstats


class ServerPort(Protocol):
    """What a donor needs from the server, wherever it lives."""

    def register_donor(self, donor_id: str, slots: int = 1) -> None: ...

    def deregister_donor(self, donor_id: str) -> None: ...

    def request_work(self, donor_id: str) -> Assignment | None: ...

    def submit_result(self, result: WorkResult) -> bool: ...

    def report_failure(
        self, problem_id: int, unit_id: int, donor_id: str, error: str
    ) -> None: ...

    def heartbeat(self, donor_id: str) -> None: ...

    def get_algorithm(self, problem_id: int) -> Algorithm: ...

    def get_shared_blob(self, problem_id: int, key: str) -> bytes: ...

    def all_complete(self) -> bool: ...


class InProcessServerPort:
    """Adapt a :class:`TaskFarmServer` to :class:`ServerPort`.

    Supplies the time argument the state machine requires from a clock
    callable, and (optionally) expires leases on every interaction so a
    single-threaded test never needs a background timer.
    """

    def __init__(
        self,
        server: TaskFarmServer,
        clock: Callable[[], float] = time.monotonic,
        auto_expire: bool = True,
    ):
        self._server = server
        self._clock = clock
        self._auto_expire = auto_expire

    def _now(self) -> float:
        now = self._clock()
        if self._auto_expire:
            self._server.expire_leases(now)
        return now

    def register_donor(self, donor_id: str, slots: int = 1) -> None:
        self._server.register_donor(donor_id, self._now(), slots=slots)

    def deregister_donor(self, donor_id: str) -> None:
        self._server.deregister_donor(donor_id, self._now())

    def request_work(self, donor_id: str) -> Assignment | None:
        return self._server.request_work(donor_id, self._now())

    def submit_result(self, result: WorkResult) -> bool:
        return self._server.submit_result(result, self._now())

    def report_failure(
        self, problem_id: int, unit_id: int, donor_id: str, error: str
    ) -> None:
        self._server.report_failure(problem_id, unit_id, donor_id, error, self._now())

    def heartbeat(self, donor_id: str) -> None:
        self._server.heartbeat(donor_id, self._now())

    def get_algorithm(self, problem_id: int) -> Algorithm:
        return self._server.get_algorithm(problem_id)

    def get_shared_blob(self, problem_id: int, key: str) -> bytes:
        return self._server.get_shared_blob(problem_id, key)

    def all_complete(self) -> bool:
        return self._server.all_complete()


# ---------------------------------------------------------------------------
# worker-pool execution engine
# ---------------------------------------------------------------------------
#
# Everything below the WorkerPool boundary runs in spawn-started child
# processes: a fresh interpreter that imports this module and calls the
# module-level functions by name.  Child-side state is therefore kept in
# module globals (one copy per worker process), seeded once by the pool
# initializer and topped up by per-task "carry" items for anything the
# parent discovers after the pool started (a new problem's algorithm, a
# later stage's shared blob).  Algorithms are content-addressed by the
# digest of their pickled bytes — worker processes outlive any single
# server, and two servers can reuse the same small problem ids.

#: Per-worker caches: pickled-algorithm digest -> Algorithm, and a
#: content-addressed cache of this donor's shared blobs.
_WORKER_ALGOS: dict[str, Algorithm] = {}
_WORKER_BLOBS: BlobCache | None = None
_WORKER_BLOB_BYTES: dict[str, bytes] = {}


def _worker_install(kind: str, key: str, data: bytes) -> None:
    if kind == "algo":
        if key not in _WORKER_ALGOS:
            _WORKER_ALGOS[key] = pickle.loads(data)
    elif kind == "blob":
        _WORKER_BLOB_BYTES.setdefault(key, data)
    else:  # pragma: no cover - parent and worker ship the same build
        raise ValueError(f"unknown pool item kind {kind!r}")


def _worker_watchdog(parent_pid: float) -> None:
    """Exit hard when the parent donor dies.

    A SIGKILLed donor runs no cleanup, and spawn-started pool workers
    are real processes that would outlive it indefinitely.  Each worker
    polls its parent and exits the moment the donor is gone, so a donor
    crash mid-unit leaves no orphans behind.
    """
    while True:
        if os.getppid() != parent_pid:
            os._exit(1)
        time.sleep(0.25)


def _pool_init(
    seed_items: list[tuple[str, str, bytes]], parent_pid: int, cache_bytes: int
) -> None:
    """Per-worker initializer: warm caches once per *process*, not per unit."""
    global _WORKER_BLOBS
    if _WORKER_BLOBS is None:
        _WORKER_BLOBS = BlobCache(cache_bytes)
    for kind, key, data in seed_items:
        _worker_install(kind, key, data)
    threading.Thread(
        target=_worker_watchdog, args=(parent_pid,), daemon=True
    ).start()


def _missing_blob(ref: BlobRef) -> bytes:
    data = _WORKER_BLOB_BYTES.get(ref.key)
    if data is None:
        raise KeyError(f"blob {ref.key} was never shipped to this worker")
    return data


def _timed_compute(
    algo: Algorithm, resolve: Callable[[], Any]
) -> tuple[Any, float, float, dict[str, float], int]:
    """Compute one unit off the donor's loop thread.

    Returns ``(value, elapsed, started_at, unit_meters, output_bytes)``;
    ``started_at`` is ``time.monotonic()`` (system-wide on Linux), which
    lets the loop meter how long the task waited for its compute slot.
    """
    started = time.monotonic()
    with unitstats.collect() as stats:
        value = algo.compute(resolve())
    elapsed = time.monotonic() - started
    try:
        output_bytes = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # The pool transport will fail loudly on the same pickle; keep
        # the accounting best-effort so that error is the one reported.
        output_bytes = 0
    return value, elapsed, started, dict(stats), output_bytes


def _pool_run(
    task: tuple[str, Any, tuple[tuple[str, str, bytes], ...]],
) -> tuple[Any, float, float, dict[str, float], int]:
    """Compute one unit inside a worker process."""
    algo_key, payload, carry = task
    for kind, key, data in carry:
        _worker_install(kind, key, data)
    assert _WORKER_BLOBS is not None
    return _timed_compute(
        _WORKER_ALGOS[algo_key],
        lambda: fetch_and_resolve(payload, _WORKER_BLOBS, _missing_blob),
    )


class WorkerPool:
    """A donor-side pool of spawn-started worker processes.

    Thin, deliberately: the pool knows nothing about servers or leases —
    it turns ``(algorithm digest, payload, carry items)`` tasks into
    computed values on ``workers`` parallel cores.  The
    :class:`DonorClient` owns all protocol state and funnels every
    worker result through its existing submit path, so the server's
    exactly-once folding and integrity quorum see a pooled donor as just
    a fast donor.

    ``seed_items`` are installed once per worker process by the
    initializer (algorithm + the first unit's shared blobs); anything
    discovered later rides along with individual tasks.  Each worker's
    blob cache holds at most ``cache_bytes``.  The spawn start
    method is mandatory: donors embed in arbitrary hosts (threads, RMI
    sockets, numpy state) and a forked child inheriting that mid-flight
    state is exactly the kind of heisenbug this farm cannot debug
    remotely.
    """

    def __init__(
        self,
        workers: int,
        seed_items: list[tuple[str, str, bytes]] | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        seed = list(seed_items or [])
        self.workers = workers
        self.seeded_keys = frozenset((kind, key) for kind, key, _data in seed)
        self._pool = multiprocessing.get_context("spawn").Pool(
            processes=workers,
            initializer=_pool_init,
            initargs=(seed, os.getpid(), cache_bytes),
        )
        self._closed = False

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (diagnostics and tests)."""
        return [p.pid for p in self._pool._pool if p.pid is not None]

    def submit(
        self,
        task: tuple[str, Any, tuple[tuple[str, str, bytes], ...]],
        callback: Callable[[Any], None],
        error_callback: Callable[[BaseException], None],
    ) -> None:
        """Dispatch one task; completion lands in the callbacks.

        ``error_callback`` receives worker exceptions *and* transport
        failures (e.g. a poisoned, unpicklable result value) — the unit
        fails loudly while the worker itself survives for the next task.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        self._pool.apply_async(
            _pool_run,
            (task,),
            callback=callback,
            error_callback=error_callback,
        )

    def shutdown(self) -> None:
        """Stop the workers; idempotent, safe to call from ``finally``."""
        if self._closed:
            return
        self._closed = True
        # terminate(), not close(): outstanding leases are recovered by
        # the server's expiry sweep, so draining the queue at shutdown
        # would only delay exit.
        self._pool.terminate()
        self._pool.join()


class DonorClient:
    """The donor main loop.

    Parameters
    ----------
    donor_id:
        Unique name (hostname + pid in the live cluster).
    port:
        A :class:`ServerPort` implementation.
    idle_sleep:
        Base of the idle backoff: when the server has no work (stage
        barriers in staged computations make this a normal condition,
        not an error) the donor sleeps a full-jitter exponential
        backoff starting from this value — uniform over
        ``[0, min(cap, idle_sleep * 2**attempt)]`` — instead of
        hammering the server at a fixed period.
    idle_sleep_max:
        Cap of the idle backoff.  Defaults to ``heartbeat_interval``
        when one is set (an idle donor then polls at least as often as
        a busy one heartbeats), else ``idle_sleep * 16``.
    prefetch:
        Widen the loop's window to two units: one computes on a compute
        thread while the loop requests the next and resolves its
        algorithm and shared blobs, so compute never waits on the wire.
        Every port call stays on the loop's thread.  Needs a server
        with ``PipelineConfig.lease_depth >= 2``.
    workers:
        Parallel compute slots.  With ``workers > 1`` the loop's window
        is ``workers`` units, computing concurrently on a
        :class:`WorkerPool` of spawn-started processes, and the donor
        registers with ``slots=workers`` so the server scales its lease
        depth and unit sizing to the donor's real capacity.  Requests
        overlap compute, so this subsumes ``prefetch``.  Requires
        picklable algorithms/payloads/results (anything that can travel
        RMI already is).
    pool:
        Inject a pre-built :class:`WorkerPool` (worker processes cost
        ~a second each to spawn; tests and embedding hosts can share one
        across donors and runs).  The client then does *not* shut it
        down when ``run()`` returns.  Its worker count overrides
        ``workers``.
    heartbeat_interval:
        When set, a background thread renews the donor's lease every
        this-many seconds while a unit computes — so a unit that takes
        longer than the server's lease timeout (slow donor, big unit)
        is not torn away from a donor that is still making progress.
    cache_bytes:
        Byte budget of the shared-blob cache (LRU, content-addressed);
        every worker of a pool this client builds gets the same budget.
    blob_fetch:
        Transport for cache misses: ``(problem_id, ref) -> bytes``,
        called only from the loop's thread.  Defaults to the server
        port's ``get_shared_blob``; the live cluster injects a
        bulk-data-channel fetch instead.
    clock, sleep, rng:
        Injectable for tests.
    """

    def __init__(
        self,
        donor_id: str,
        port: ServerPort,
        idle_sleep: float = 0.1,
        idle_sleep_max: float | None = None,
        prefetch: bool = False,
        workers: int = 1,
        pool: WorkerPool | None = None,
        heartbeat_interval: float | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        blob_fetch: Callable[[int, BlobRef], bytes] | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if idle_sleep_max is not None and idle_sleep_max < idle_sleep:
            raise ValueError("idle_sleep_max must be >= idle_sleep")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.donor_id = donor_id
        self.port = port
        self.idle_sleep = idle_sleep
        self.idle_sleep_max = idle_sleep_max
        self.prefetch = prefetch
        self.workers = pool.workers if pool is not None else workers
        self._pooled = pool is not None or workers > 1
        self._pool = pool
        self._pool_owned = False
        self._carry_cache: dict[tuple[str, str], bytes] = {}
        self._pool_mark = 0.0
        self.heartbeat_interval = heartbeat_interval
        self._clock = clock
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._algorithms: dict[int, Algorithm] = {}
        self.blob_cache = BlobCache(cache_bytes)
        self._blob_fetch = blob_fetch
        # Pipeline telemetry accumulated donor-side, folded into the
        # next result's ``extra["meters"]`` so it reaches the server's
        # whitelisted farm.pipeline.* counters.
        self._meters_pending: dict[str, float] = {}
        self.units_done = 0
        self.heartbeats_sent = 0
        self.failures = 0
        self.idle_polls = 0
        self._idle_attempt = 0

    def _fetch_blob(self, problem_id: int, ref: BlobRef) -> bytes:
        if self._blob_fetch is not None:
            return self._blob_fetch(problem_id, ref)
        return self.port.get_shared_blob(problem_id, ref.key)

    def _algorithm(self, problem_id: int) -> Algorithm:
        algo = self._algorithms.get(problem_id)
        if algo is None:
            # Shipped once per problem and cached, as in the paper.
            algo = self._algorithms[problem_id] = self.port.get_algorithm(problem_id)
        return algo

    def _resolve(self, assignment: Assignment) -> Any:
        """The unit's payload with its shared blobs filled in from the
        cache, fetching each miss."""
        return fetch_and_resolve(
            assignment.payload,
            self.blob_cache,
            lambda ref: self._fetch_blob(assignment.problem_id, ref),
        )

    def execute(self, assignment: Assignment) -> WorkResult:
        """Run the Algorithm on one assignment and package the result."""
        algo = self._algorithm(assignment.problem_id)
        stop_heartbeat = self._start_heartbeat()
        start = self._clock()
        try:
            with unitstats.collect() as stats:
                value = algo.compute(self._resolve(assignment))
        finally:
            stop_heartbeat()
        elapsed = self._clock() - start
        try:
            output_bytes = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            output_bytes = 0  # unpicklable values never leave the process anyway
        return WorkResult(
            problem_id=assignment.problem_id,
            unit_id=assignment.unit_id,
            value=value,
            donor_id=self.donor_id,
            compute_seconds=elapsed,
            items=assignment.items,
            output_bytes=output_bytes,
            extra={"meters": stats} if stats else {},
        )

    def _start_heartbeat(self) -> Callable[[], None]:
        """Begin periodic lease renewal; returns a stop function."""
        if self.heartbeat_interval is None:
            return lambda: None
        done = threading.Event()

        def beat() -> None:
            while not done.wait(self.heartbeat_interval):
                try:
                    self.port.heartbeat(self.donor_id)
                    self.heartbeats_sent += 1
                except Exception:
                    # A heartbeat is best-effort: a failure means the
                    # lease may expire and the unit be recomputed
                    # elsewhere — safe, just wasteful.
                    return

        thread = threading.Thread(
            target=beat, name=f"heartbeat:{self.donor_id}", daemon=True
        )
        thread.start()

        def stop() -> None:
            done.set()
            thread.join(timeout=1.0)

        return stop

    def _meter(self, name: str, amount: float) -> None:
        self._meters_pending[name] = self._meters_pending.get(name, 0.0) + amount

    def _submit(self, result: WorkResult) -> None:
        """Submit a result, folding pending pipeline meters into it."""
        if self._meters_pending:
            extra = dict(result.extra or {})
            meters = dict(extra.get("meters") or {})
            for name, amount in self._meters_pending.items():
                meters[name] = meters.get(name, 0.0) + amount
            extra["meters"] = meters
            result = dataclasses.replace(result, extra=extra)
            self._meters_pending.clear()
        self.port.submit_result(result)
        self.units_done += 1

    def _idle_wait(self) -> None:
        """Full-jitter exponential backoff while the server has no work.

        A stage barrier (DPRml) idles every donor at once; fixed-period
        polling then hits the server with a synchronised thundering
        herd.  Jittered geometric backoff — the idiom of
        :mod:`repro.rmi.reconnect` — decorrelates and thins the polls,
        capped so a freed barrier is noticed within one heartbeat.
        """
        self.idle_polls += 1
        cap = self.idle_sleep_max
        if cap is None:
            cap = (
                self.heartbeat_interval
                if self.heartbeat_interval is not None
                else self.idle_sleep * 16
            )
        bound = min(cap, self.idle_sleep * (2.0 ** self._idle_attempt))
        self._idle_attempt += 1
        self._sleep(self._rng.uniform(0.0, bound))

    def step(self) -> bool:
        """One fetch→compute→submit cycle; False when the server was idle.

        An Algorithm exception is *reported*, not fatal: the donor tells
        the server (which requeues the unit or, after repeated failures,
        fails the problem) and keeps serving other work.
        """
        assignment = self.port.request_work(self.donor_id)
        if assignment is None:
            return False
        self._finish(assignment, self._execute_or_error(assignment), None)
        return True

    def _execute_or_error(self, assignment: Assignment) -> WorkResult | Exception:
        try:
            return self.execute(assignment)
        except Exception as exc:
            return exc

    def run(
        self,
        max_units: int | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> int:
        """Loop until all problems finish (or a stop condition); returns
        the number of units computed.

        One loop serves every mode.  It keeps up to a *window* of leased
        units in flight: ``workers`` when pooled, 2 with ``prefetch``
        (one computing, the next already granted), else 1.  A deeper
        hoard would only strand leases at problem end; the server's
        lease depth enforces the same bound from its side.  Every port
        call is made on this thread — ``heartbeat`` aside — and only
        ``Algorithm.compute`` leaves it; at window 1 not even that, so
        the serial donor is the paper's poll, download, compute, upload
        loop.
        """
        if self._pooled:
            # Advertise capacity: the server scales this donor's lease
            # depth (PipelineConfig.depth_for) and unit sizing to it.
            self.port.register_donor(self.donor_id, self.workers)
            window = self.workers
        else:
            self.port.register_donor(self.donor_id)
            window = 2 if self.prefetch else 1
        compute_thread = ThreadPool(1) if self.prefetch and not self._pooled else None
        # An inline unit renews its own lease (execute); otherwise one
        # heartbeat covers the whole run.
        inline = not self._pooled and compute_thread is None
        stop_heartbeat = (lambda: None) if inline else self._start_heartbeat()
        finished: queue.SimpleQueue = queue.SimpleQueue()
        in_flight, waiting, freed = 0, False, None
        try:
            while True:
                # 1. Drain finished units: submit each, or report it.
                while in_flight:
                    try:
                        item = finished.get(waiting, 0.05)
                    except queue.Empty:
                        break
                    in_flight, waiting, freed = in_flight - 1, False, time.monotonic()
                    self._finish(*item)
                # 2. Check the stop conditions.
                if should_stop is not None and should_stop():
                    break
                if max_units is not None and self.units_done >= max_units:
                    break
                # 3. Request work until the window is full; after a
                # refusal, ask again only once a unit has finished.
                granted = False
                while not waiting and in_flight < window and (
                    max_units is None or self.units_done + in_flight < max_units
                ):
                    assignment = self.port.request_work(self.donor_id)
                    if assignment is None:
                        waiting = in_flight > 0
                        break
                    granted = True
                    if inline:
                        # Window 1: compute and submit right here, then
                        # back to the stop checks.
                        self._finish(
                            assignment, self._execute_or_error(assignment), None
                        )
                        break
                    self._dispatch(assignment, compute_thread, finished)
                    if compute_thread is not None and in_flight:
                        # Granted before the compute slot freed up.
                        self._meter("farm.pipeline.prefetch.hits", 1)
                    elif compute_thread is not None:
                        self._meter("farm.pipeline.prefetch.misses", 1)
                        if freed is not None:
                            self._meter(
                                "farm.pipeline.idle.gap.seconds",
                                time.monotonic() - freed,
                            )
                    in_flight += 1
                # 4. Nothing in flight or granted: finish or back off.
                if granted:
                    self._idle_attempt = 0
                elif in_flight:
                    waiting = True  # block on the next completion
                elif self.port.all_complete():
                    break
                else:
                    freed = None
                    self._idle_wait()
        finally:
            stop_heartbeat()
            if compute_thread is not None:
                compute_thread.terminate()
            if self._pool_owned and self._pool is not None:
                self._pool.shutdown()
                self._pool = None
                self._pool_owned = False
            try:
                self.port.deregister_donor(self.donor_id)
            except Exception:
                # The server may already be gone at shutdown; the donor's
                # lease will expire server-side regardless.
                pass
        return self.units_done

    def _dispatch(
        self,
        assignment: Assignment,
        compute_thread: ThreadPool | None,
        finished: queue.SimpleQueue,
    ) -> None:
        """Hand one granted unit to a compute slot; its outcome lands in
        *finished*.

        Every port call the unit needs — algorithm, shared blobs, pool
        carry items — is made here, on the loop's thread.  Only
        ``Algorithm.compute`` goes to the pool or the compute thread.
        """
        try:
            if self._pooled:
                pool = self._ensure_pool(assignment)
                items = self._pool_items(assignment)
                carry = tuple(i for i in items if i[:2] not in pool.seeded_keys)
                for _kind, _key, data in carry:
                    self._meter("farm.pool.carry.bytes", len(data))
            else:
                algo = self._algorithm(assignment.problem_id)
                with unitstats.collect() as stats:
                    payload = self._resolve(assignment)
                for name, amount in stats.items():
                    self._meter(name, amount)
        except Exception as exc:
            finished.put((assignment, exc, None))
            return
        dispatched = time.monotonic()

        def done(outcome: Any) -> None:
            # Runs on a result-handler thread: only enqueue, and leave
            # all protocol work to the loop.
            finished.put((assignment, outcome, dispatched))

        if self._pooled:
            pool.submit((items[0][1], assignment.payload, carry), done, done)
        else:
            compute_thread.apply_async(
                _timed_compute,
                (algo, lambda: payload),
                callback=done,
                error_callback=done,
            )

    def _finish(
        self, assignment: Assignment, outcome: Any, dispatched: float | None
    ) -> None:
        """Submit one finished unit, or report its failure.

        *outcome* is an exception, an inline :class:`WorkResult`, or the
        ``(value, elapsed, started, meters, output_bytes)`` of a unit
        handed to a compute slot at monotonic time *dispatched*.
        """
        pooled = dispatched is not None and self._pooled
        if pooled:
            now = time.monotonic()
            if self._pool_mark:
                # Slot-time advances by wall-time x workers between
                # completions; utilization = busy.seconds / slot.seconds.
                self._meter(
                    "farm.pool.slot.seconds", (now - self._pool_mark) * self.workers
                )
            self._pool_mark = now
        if isinstance(outcome, BaseException):
            self.failures += 1
            if pooled:
                self._meter("farm.pool.failures", 1)
            self.port.report_failure(
                assignment.problem_id,
                assignment.unit_id,
                self.donor_id,
                f"{type(outcome).__name__}: {outcome}",
            )
            return
        if isinstance(outcome, tuple):
            value, elapsed, started, stats, output_bytes = outcome
            if pooled:
                self._meter("farm.pool.units", 1)
                self._meter("farm.pool.busy.seconds", elapsed)
                self._meter(
                    "farm.pool.queue.wait.seconds", max(0.0, started - dispatched)
                )
            outcome = WorkResult(
                problem_id=assignment.problem_id,
                unit_id=assignment.unit_id,
                value=value,
                donor_id=self.donor_id,
                compute_seconds=elapsed,
                items=assignment.items,
                output_bytes=output_bytes,
                extra={"meters": stats} if stats else {},
            )
        self._submit(outcome)

    # ------------------------------------------------------------------
    # pooled execution
    # ------------------------------------------------------------------

    def _algo_key(self, problem_id: int) -> tuple[str, bytes]:
        """Content address + pickled bytes of one problem's algorithm."""
        cached = self._carry_cache.get(("problem", str(problem_id)))
        if cached is not None:
            key = blob_key(cached)
            return key, cached
        algo = self._algorithm(problem_id)
        data = pickle.dumps(algo, protocol=pickle.HIGHEST_PROTOCOL)
        self._carry_cache[("problem", str(problem_id))] = data
        return blob_key(data), data

    def _pool_items(
        self, assignment: Assignment
    ) -> list[tuple[str, str, bytes]]:
        """Everything a worker needs for *assignment*: algo + blobs."""
        algo_key, algo_bytes = self._algo_key(assignment.problem_id)
        items = [("algo", algo_key, algo_bytes)]
        for ref in iter_blob_refs(assignment.payload):
            data = self._carry_cache.get(("blob", ref.key))
            if data is None:
                data = self._fetch_blob(assignment.problem_id, ref)
                self._carry_cache[("blob", ref.key)] = data
            items.append(("blob", ref.key, data))
        return items

    def _ensure_pool(self, assignment: Assignment) -> WorkerPool:
        """Build the pool lazily, seeded from the first assignment.

        Seeding through the initializer ships the algorithm and the
        first unit's shared blobs exactly once per worker process;
        later problems/stages ride along with tasks as carry items.
        """
        if self._pool is None:
            self._pool = WorkerPool(
                self.workers,
                seed_items=self._pool_items(assignment),
                cache_bytes=self.blob_cache.budget_bytes,
            )
            self._pool_owned = True
            self._meter("farm.pool.workers", self.workers)
        self._pool_mark = time.monotonic()
        return self._pool


def run_to_completion(
    server: TaskFarmServer,
    donors: int = 4,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Drive submitted problems to completion on one thread.

    A convenience for unit tests and tiny examples: simulates *donors*
    round-robin donors taking units in turn, all executing inline.
    When a whole round finds no work (a stage barrier, or every unit
    leased out), the loop yields through *sleep* instead of spinning
    hot against the server — under a wall clock that lets leases age
    toward expiry; tests inject a sleep that advances their ManualClock.
    """
    port = InProcessServerPort(server, clock=clock)
    clients = [DonorClient(f"donor-{i}", port, sleep=lambda _s: None) for i in range(donors)]
    for client in clients:
        client.port.register_donor(client.donor_id)
    idle_rounds = 0
    while not server.all_complete():
        progressed = False
        for client in clients:
            if client.step():
                progressed = True
        if not progressed:
            idle_rounds += 1
            if idle_rounds > 10_000:
                raise RuntimeError("no progress: a DataManager is stuck")
            sleep(0.0)
        else:
            idle_rounds = 0
