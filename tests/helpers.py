"""Shared test fixtures: simple DataManagers/Algorithms, a manual clock
and the server and journal invariant checks."""

from __future__ import annotations

import threading
from typing import Any

from repro.core.checkpoint import parse_checkpoint
from repro.core.gateway import WeightedFairShare
from repro.core.journal import JournalWriter, MemoryStore, read_journal
from repro.core.problem import Algorithm, DataManager
from repro.core.server import ProblemStatus
from repro.core.workunit import UnitPayload, WorkResult


def check_invariants(server) -> None:
    """Assert that every counter the server keeps at its mutation
    points equals its value re-derived by walking the state, and that
    no cut unit is lost.

    For every RUNNING problem, each unit id below ``next_unit_id`` that
    is not folded must be leased or queued, and a voting unit's votes,
    leases and queued copies must still cover its required votes, with
    no donor holding a lease on a unit it has already voted on.  An
    ended problem holds no lease, queued copy or vote.
    """
    table = server.leases
    leases = table.outstanding()
    assert len(table) == len(leases)
    per_problem: dict[int, tuple[int, int]] = {}
    for lease in leases:
        n, items = per_problem.get(lease.unit.problem_id, (0, 0))
        per_problem[lease.unit.problem_id] = (n + 1, items + lease.unit.items)
    kept = {pid: table.in_flight(pid) for pid in table._in_flight}
    assert kept == per_problem, (kept, per_problem)
    assert all(lease.deadline >= table._earliest for lease in leases)

    running = [
        pid
        for pid, state in server._problems.items()
        if state.status is ProblemStatus.RUNNING
    ]
    assert server.active_problem_ids() == running
    assert server.all_complete() == (not running)
    assert server._busy_donors == sum(
        1 for donor in server._donors.values() if donor.active_units
    )
    # A donor may list units whose lease went elsewhere (its next
    # request prunes them), but never holds a lease it does not list.
    for lease in leases:
        key = (lease.unit.problem_id, lease.unit.unit_id)
        assert key in server._donors[lease.donor_id].active_units, lease
    if isinstance(server.dispatch, WeightedFairShare):
        by_tenant: dict[str, int] = {}
        for lease in leases:
            tenant = server.dispatch.tenant_of(lease.unit.problem_id)
            by_tenant[tenant] = by_tenant.get(tenant, 0) + lease.unit.items
        assert server.dispatch._inflight_items(running) == by_tenant

    for pid, state in server._problems.items():
        held = [lease.unit for lease in leases if lease.unit.problem_id == pid]
        queued = list(state.requeue) + list(state.replicas)
        live = {unit.unit_id: unit.items for unit in held + queued}
        assert not live.keys() & state.completed_units, pid
        assert state.items_cut == state.items_completed + sum(live.values()), (
            pid,
            state.items_cut,
            state.items_completed,
            live,
        )
        if state.status is not ProblemStatus.RUNNING:
            assert not live and not state.voting, pid
            continue
        lost = [
            uid
            for uid in range(state.next_unit_id)
            if uid not in state.completed_units and uid not in live
        ]
        assert not lost, f"problem {pid}: cut units {lost} are nowhere"
        for uid, voting in state.voting.items():
            supply = len(voting.votes) + sum(
                1 for unit in held + queued if unit.unit_id == uid
            )
            assert supply >= voting.required, (pid, uid, supply, voting.required)
            both = voting.voters() & set(table.holders(pid, uid))
            assert not both, f"problem {pid} unit {uid}: {both} voted and hold a lease"


def journaled(server):
    """Give *server* an in-memory journal before any work reaches it;
    returns the server."""
    server.journal = JournalWriter(MemoryStore())
    return server


def check_folds_once(store, checkpoint: bytes | None = None) -> None:
    """Assert from *store*'s journal that every ``unit.fold`` follows a
    ``unit.cut`` of the same ``(pid, uid)`` and that no unit is folded
    twice.

    A compacted journal starts at a *checkpoint*: the units it covers
    count as cut (every id below its ``next_unit_id``) and its folded
    units as folded, and only records past its LSN are read.
    """
    cut: set[tuple[int, int]] = set()
    folded: set[tuple[int, int]] = set()
    start = 0
    if checkpoint is not None:
        blob = parse_checkpoint(checkpoint)
        start = blob.journal_lsn
        for snap in blob.snapshots:
            pid = snap.problem.problem_id
            cut.update((pid, uid) for uid in range(snap.next_unit_id))
            folded.update((pid, uid) for uid in snap.completed_units)
    records, _, _ = read_journal(store)
    for record in records:
        if record["lsn"] <= start:
            continue
        if record["kind"] == "unit.cut":
            cut.add((record["pid"], record["uid"]))
        elif record["kind"] == "unit.fold":
            key = (record["result"].problem_id, record["result"].unit_id)
            assert key in cut, f"lsn {record['lsn']}: {key} folded before its cut"
            assert key not in folded, f"lsn {record['lsn']}: {key} folded twice"
            folded.add(key)


def rewrite_journal(store, upto: str | None = None, extra=()) -> MemoryStore:
    """A fresh copy of *store*'s journal records.

    With *upto*, the copy ends at the first record of that kind, as if a
    crash tore away everything after it.  *extra* ``(kind, now,
    fields)`` records are appended at the end.
    """
    records, _, _ = read_journal(store)
    copy = MemoryStore()
    writer = JournalWriter(copy)
    for record in records:
        fields = {k: v for k, v in record.items() if k not in ("lsn", "kind", "now")}
        writer.append(record["kind"], record["now"], **fields)
        if record["kind"] == upto:
            break
    for kind, now, fields in extra:
        writer.append(kind, now, **fields)
    return copy


class RecordingPort:
    """Wrap a server port and log ``(method, calling thread id)`` for
    every call made through it."""

    def __init__(self, inner):
        self._inner = inner
        self.calls: list[tuple[str, int]] = []

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def call(*args, **kwargs):
            self.calls.append((name, threading.get_ident()))
            return method(*args, **kwargs)

        return call

    def names(self) -> list[str]:
        return [name for name, _thread in self.calls]


class ManualClock:
    """A clock the test advances explicitly."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class RangeSumDataManager(DataManager):
    """Sum the integers 0..n-1: the canonical trivially parallel problem.

    Units are contiguous slices of the range; the final result is the
    grand total.  Used throughout the framework tests because every
    intermediate value is checkable in closed form.
    """

    def __init__(self, n: int):
        self.n = n
        self._next = 0
        self._outstanding = 0
        self._total = 0
        self._done_items = 0

    def total_items(self) -> int:
        return self.n

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self._next >= self.n:
            return None
        lo = self._next
        hi = min(self.n, lo + max_items)
        self._next = hi
        self._outstanding += 1
        return UnitPayload(payload=(lo, hi), items=hi - lo, input_bytes=16)

    def handle_result(self, result: WorkResult) -> None:
        self._total += result.value
        self._done_items += result.items
        self._outstanding -= 1

    def is_complete(self) -> bool:
        return self._done_items >= self.n

    def final_result(self) -> int:
        return self._total


class RangeSumAlgorithm(Algorithm):
    def compute(self, payload: Any) -> int:
        lo, hi = payload
        return sum(range(lo, hi))

    def cost(self, payload: Any) -> float:
        lo, hi = payload
        return float(hi - lo)


class SlowRangeSumAlgorithm(RangeSumAlgorithm):
    """RangeSum with a real per-unit wall-clock cost, so live crash
    tests can kill a server while units are genuinely in flight."""

    def __init__(self, delay: float = 0.05):
        self.delay = delay

    def compute(self, payload: Any) -> int:
        import time

        time.sleep(self.delay)
        return super().compute(payload)


class StagedDataManager(DataManager):
    """A two-phase computation exercising stage barriers.

    Stage 1: square each of ``n`` integers (n units).
    Stage 2 (only after *all* squares are in): sum pairs of squares.
    Mirrors DPRml's structure where a stage must fully complete before
    the next stage's units exist.
    """

    def __init__(self, n: int = 8):
        assert n % 2 == 0
        self.n = n
        self.stage = 1
        self._pending = list(range(n))
        self._stage1_results: dict[int, int] = {}
        self._stage2_pending: list[tuple[int, int]] = []
        self._stage2_expected = 0
        self._total = 0
        self._stage2_done = 0

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self.stage == 1:
            if not self._pending:
                return None  # barrier: wait for stage-1 results
            x = self._pending.pop()
            return UnitPayload(payload=("square", x), items=1)
        if self._stage2_pending:
            pair = self._stage2_pending.pop()
            return UnitPayload(payload=("addpair", pair), items=1)
        return None

    def handle_result(self, result: WorkResult) -> None:
        kind, value = result.value
        if kind == "square":
            x, squared = value
            self._stage1_results[x] = squared
            if len(self._stage1_results) == self.n:
                squares = [self._stage1_results[i] for i in range(self.n)]
                self._stage2_pending = [
                    (squares[i], squares[i + 1]) for i in range(0, self.n, 2)
                ]
                self._stage2_expected = len(self._stage2_pending)
                self.stage = 2
        else:
            self._total += value
            self._stage2_done += 1

    def is_complete(self) -> bool:
        return self.stage == 2 and self._stage2_done == self._stage2_expected

    def final_result(self) -> int:
        return self._total


class StagedAlgorithm(Algorithm):
    def compute(self, payload: Any) -> Any:
        op, arg = payload
        if op == "square":
            return ("square", (arg, arg * arg))
        a, b = arg
        return ("addpair", a + b)
