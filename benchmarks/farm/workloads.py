"""The four workloads: one repetition of each, and its correctness checks.

A repetition builds a fresh stack, runs one fixed job to completion and
returns a :class:`Rep` — the five end-to-end numbers, the operations
attempted and failed, the result, and (traced pass only) the raw
material :mod:`layers` turns into per-layer metrics.

Sizes are item counts generated from ``--seed``; ``scale`` multiplies
them (``--seconds / run_seconds``), so the work of a run is fixed by
its arguments, never by a timer.
"""

from __future__ import annotations

import json
import math
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import problems
import stack
import tracing

DONORS = 2  # = nproc of the box the bounds were measured on

#: Adaptive-granularity target of the live workloads: ~40 units per job,
#: so the end-of-job imbalance (one donor idle while the other finishes
#: its last unit) stays a few percent of the makespan.
UNIT_TARGET_SECONDS = 0.3

#: Gate job: sleep units of 20 ms until both donors have answered and
#: 50 units are back (~0.5 s with two donors).
GATE_UNIT_SECONDS = 0.02
GATE_MIN_UNITS = 50
GATE_MAX_UNITS = 2000

HOTPATH_DONORS = 8


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    makespan_s: float = 0.0
    items: int = 0
    farm_cpu_s: float = 0.0
    server_peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    result: Any = None
    raw: dict = field(default_factory=dict)


class CountedProxy:
    """Counts the harness's own RMI calls (they are operations too)."""

    def __init__(self, proxy):
        self._proxy = proxy
        self.calls = 0
        self.raised = 0

    def __getattr__(self, name):
        method = getattr(self._proxy, name)

        def call(*args, **kwargs):
            self.calls += 1
            try:
                return method(*args, **kwargs)
            except Exception:
                self.raised += 1
                raise

        return call

    def close(self) -> None:
        self._proxy.close()


_FAILURE_COUNTERS = (
    "farm.units.failed",
    "farm.units.requeued",
    "farm.units.duplicate",
    "farm.units.stale",
    "farm.leases.expired",
)


def _failed_units(counters: dict) -> int:
    return int(sum(counters.get(name, 0.0) for name in _FAILURE_COUNTERS))


def _job_counters(after: dict, at_promotion: dict, gate: dict) -> dict:
    """The real job's share of the server's counters.

    Unit counts are exact: the gate's units (all leased once, all
    folded) are subtracted from the totals.  Everything else is the
    growth since the first poll that saw the job promoted, which is up
    to one poll period late.
    """
    job = {k: v - at_promotion.get(k, 0.0) for k, v in after.items()}
    for name in ("farm.units.issued", "farm.units.completed", "farm.items.completed"):
        job[name] = after.get(name, 0.0) - gate["units"]
    return job


class Workload:
    """Interface of one workload; see the four subclasses."""

    name = ""
    #: Measured repetitions per invocation; every end-to-end value is
    #: their median.
    repetitions = 3
    #: Extra start-only cycles whose ``setup_s`` joins the median: the
    #: set-up of the ``farm_*`` workloads is sub-second, so three
    #: samples would not repeat; with these there are eight.
    setup_only_cycles = 0

    def sizes(self, scale: float) -> dict:
        raise NotImplementedError

    def warm(self, work: Path, sizes: dict) -> None:
        """One throw-away start so the first timed repetition does not
        pay for cold ``.pyc`` files and a cold page cache."""
        self.repetition(work, 0, sizes, traced=False, setup_only=True)

    def repetition(
        self, work: Path, seed: int, sizes: dict, traced: bool, setup_only: bool = False
    ) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep, sizes: dict) -> list[str]:
        """Correctness failures of one repetition (empty = correct)."""
        raise NotImplementedError

    def digest(self, rep: Rep) -> str | None:
        """Canonical digest of the result, compared across repetitions."""
        return None


# ---------------------------------------------------------------------------
# live workloads: repro-server + 2 repro-donor processes, gate then job
# ---------------------------------------------------------------------------


class LiveWorkload(Workload):
    #: Application modules the gate makes the donors import.
    preload: tuple[str, ...] = ()

    def build(self, seed: int, sizes: dict):
        """``(problem, items, context)`` from the seed."""
        raise NotImplementedError

    def warm(self, work: Path, sizes: dict) -> None:
        rep_dir = work / "warm"
        rep_dir.mkdir()
        self.build(0, sizes)  # imports the application in the harness
        server = stack.ServerProcess(rep_dir, UNIT_TARGET_SECONDS)
        try:
            server.wait_ready().close()
            # A donor joining an empty farm imports everything,
            # connects, sees all_complete() and exits.
            donor = stack.spawn_donor(rep_dir, server.port, "warm-donor")
            donor.wait(30.0)
            donor.stop()
        finally:
            server.stop()

    def repetition(self, work, seed, sizes, traced, setup_only=False) -> Rep:
        from repro.core.problem import Problem

        rep_dir = work / f"rep-{time.monotonic_ns()}"
        rep_dir.mkdir()
        started = time.monotonic()
        server = stack.ServerProcess(rep_dir, UNIT_TARGET_SECONDS)
        donors: list[stack.Child] = []
        proxy = None
        try:
            proxy = CountedProxy(server.wait_ready())
            t = time.monotonic()
            problem, items, context = self.build(seed, sizes)
            build_ms = (time.monotonic() - t) * 1e3
            gate = Problem(
                "gate",
                problems.GateDataManager(DONORS, GATE_MIN_UNITS, GATE_MAX_UNITS),
                problems.SleepAlgorithm(GATE_UNIT_SECONDS, self.preload),
            )
            gate_id = stack.submit_job(proxy, gate)
            t = time.monotonic()
            job_id = stack.submit_job(proxy, problem)
            submit_ms = (time.monotonic() - t) * 1e3
            donors = [
                stack.spawn_donor(
                    rep_dir, server.port, f"donor-{i}", self.name if traced else None
                )
                for i in range(DONORS)
            ]
            gate_status = stack.wait_job(
                proxy, gate_id, ("done",), timeout=60.0, watch=donors
            )
            # The submit_result that finished the gate promoted the job.
            rss_start = server.rss_mb()
            snap_start = proxy.metrics_snapshot()["counters"]
            status = stack.wait_job(
                proxy, job_id, ("done",), timeout=150.0, watch=donors
            )
            farm_cpu = server.cpu_seconds()
            donor_cpu = sum(stack.proc_cpu_seconds(d.pid) for d in donors)
            rss_end = server.rss_mb()
            peak = server.peak_rss_mb()
            counters = proxy.metrics_snapshot()["counters"]
            result = proxy.job_result(job_id)
            gate_result = proxy.job_result(gate_id)
            exit_codes = [d.wait(20.0) for d in donors]
            rep = Rep(
                setup_s=status["started_at"] - started,
                makespan_s=status["finished_at"] - status["started_at"],
                items=items,
                farm_cpu_s=farm_cpu + donor_cpu,
                server_peak_rss_mb=peak,
                result=result,
            )
            rep.raw = {
                "context": context,
                "gate": gate_result,
                "donor_exit_codes": exit_codes,
                "counters": counters,
                "job_counters": _job_counters(counters, snap_start, gate_result),
                "status": status,
                "gate_status": gate_status,
            }
            if traced:
                rep.raw.update(
                    server_cpu_s=farm_cpu,
                    donor_cpu_s=donor_cpu,
                    rss_growth_mb=rss_end - rss_start,
                    build_ms=build_ms,
                    submit_ms=submit_ms,
                    null_call_us=_null_call_us(proxy),
                    donors=[
                        pickle.loads((rep_dir / f"spans-donor-{i}.pickle").read_bytes())
                        for i in range(DONORS)
                    ],
                    journal_dir=server.journal_dir,
                    problem=problem,
                )
            rep.attempted = int(counters.get("farm.units.issued", 0)) + proxy.calls
            rep.failed = _failed_units(counters) + proxy.raised
            return rep
        finally:
            if proxy is not None:
                proxy.close()
            for donor in donors:
                donor.stop(grace=1.0)
            server.stop()

    def _check_stack(self, rep: Rep) -> list[str]:
        bad = []
        if len(rep.raw["gate"]["donors"]) != DONORS:
            bad.append(f"gate closed having seen only {rep.raw['gate']['donors']}")
        if any(code != 0 for code in rep.raw["donor_exit_codes"]):
            bad.append(f"donor exit codes {rep.raw['donor_exit_codes']}")
        failed = _failed_units(rep.raw["counters"])
        if failed:
            bad.append(f"{failed} unit(s) failed/requeued/expired/stale/duplicate")
        return bad


def _null_call_us(proxy, calls: int = 300) -> float:
    """Median round trip of ``all_complete()`` on the now idle server:
    transport + dispatch + facade lock, the floor under every call."""
    samples = []
    for _ in range(calls):
        t = time.perf_counter()
        proxy.all_complete()
        samples.append(time.perf_counter() - t)
    return tracing.median_or_zero(samples) * 1e6


class DSearchLive(LiveWorkload):
    name = "dsearch_live"
    preload = ("repro.apps.dsearch",)

    def sizes(self, scale: float) -> dict:
        return {"database": max(40, round(1600 * scale)), "queries": 4,
                "query_length": problems.QUERY_LENGTH}

    def build(self, seed, sizes):
        from repro.apps.dsearch import DSearchConfig, build_problem

        database, queries, planted = problems.dsearch_inputs(
            seed, sizes["database"], sizes["queries"]
        )
        config = DSearchConfig(top_hits=problems.TOP_HITS)
        problem = build_problem(database, queries, config)
        return problem, len(database), {"planted": planted}

    def check(self, rep, sizes) -> list[str]:
        bad = self._check_stack(rep)
        return bad + check_dsearch(rep.result, rep.raw["context"]["planted"], sizes)

    def digest(self, rep) -> str:
        from repro.core.integrity import canonical_digest

        # ``units`` is scheduling noise (adaptive cuts); the hits are
        # the answer.
        return canonical_digest(rep.result.hits).hex()


def check_dsearch(report, planted: dict, sizes: dict) -> list[str]:
    bad = []
    if report.database_size != sizes["database"]:
        bad.append(f"searched {report.database_size} of {sizes['database']} sequences")
    want = min(problems.TOP_HITS, sizes["database"])
    for query_id, homolog_ids in planted.items():
        hits = report.hits.get(query_id, [])
        if len(hits) != want:
            bad.append(f"{query_id}: {len(hits)} hits, expected {want}")
        scores = [h.score for h in hits]
        if scores != sorted(scores, reverse=True):
            bad.append(f"{query_id}: hit list not sorted by score")
        top3 = [h.subject_id for h in hits[:3]]
        missing = [h for h in homolog_ids if h not in top3]
        if missing:
            bad.append(f"{query_id}: planted {missing} not in top 3 {top3}")
    return bad


class DPRmlLive(LiveWorkload):
    name = "dprml_live"
    preload = ("repro.apps.dprml",)

    def sizes(self, scale: float) -> dict:
        return {"taxa": 18 if scale >= 0.5 else 8, "sites": max(40, round(600 * scale))}

    def build(self, seed, sizes):
        from repro.apps.dprml import build_problem

        alignment, config = problems.dprml_inputs(seed, sizes["taxa"], sizes["sites"])
        problem = build_problem(alignment, config)
        return problem, problem.data_manager.total_items(), {
            "taxa": list(alignment.names)
        }

    def check(self, rep, sizes) -> list[str]:
        bad = self._check_stack(rep)
        return bad + check_dprml(rep.result, rep.raw["context"]["taxa"])

    def digest(self, rep) -> str:
        from repro.core.integrity import canonical_digest

        report = rep.result
        return canonical_digest(
            (report.newick, report.log_likelihood, report.addition_order)
        ).hex()


def check_dprml(report, taxa: list[str]) -> list[str]:
    from repro.bio.phylo.tree import parse_newick

    bad = []
    leaves = sorted(parse_newick(report.newick).leaf_names())
    if leaves != sorted(taxa):
        bad.append(f"tree has {len(leaves)} of {len(taxa)} taxa")
    if not math.isfinite(report.log_likelihood) or report.log_likelihood >= 0:
        bad.append(f"log-likelihood {report.log_likelihood!r}")
    if len(report.stage_winners) != len(taxa) - 3:
        bad.append(f"{len(report.stage_winners)} stages for {len(taxa)} taxa")
    return bad


# ---------------------------------------------------------------------------
# farm_hotpath: the bare state machine in a fresh child process
# ---------------------------------------------------------------------------


def check_range_sum(total: int, units: int, expected: int, items: int, requeued) -> list[str]:
    bad = []
    if total != expected:
        bad.append(f"sum {total} != {expected}")
    if units != items:
        bad.append(f"{units} units for {items} one-item units")
    if requeued:
        bad.append(f"{int(requeued)} unit(s) requeued")
    return bad


class FarmHotpath(Workload):
    name = "farm_hotpath"
    setup_only_cycles = 5

    def sizes(self, scale: float) -> dict:
        return {"items": max(200, round(30000 * scale)), "donors": HOTPATH_DONORS}

    def repetition(self, work, seed, sizes, traced, setup_only=False) -> Rep:
        tag = time.monotonic_ns()
        records = work / f"hotpath-{tag}.pickle"
        argv = [
            sys.executable, str(stack.HERE / "hotpath_child.py"),
            "--items", str(sizes["items"]),
            "--offset", str(problems.range_offset(seed)),
            "--donors", str(sizes["donors"]),
        ]
        if setup_only:
            argv.append("--setup-only")
        if traced:
            argv += ["--records", str(records)]
        started = time.monotonic()
        child = stack.Child(argv, work / f"hotpath-{tag}.log")
        try:
            code = child.wait(170.0)
            if code != 0:
                raise RuntimeError(
                    f"hotpath child exited {code}:\n{child.log_tail()}"
                )
        finally:
            child.stop(grace=0.5)
        out = json.loads(child.log_path.read_text().splitlines()[-1])
        counters = out["counters"]
        rep = Rep(
            setup_s=out["loop_start"] - started,
            makespan_s=out["makespan_s"],
            items=sizes["items"],
            farm_cpu_s=out["cpu_s"],
            server_peak_rss_mb=out["peak_rss_mb"],
            attempted=int(counters.get("farm.units.issued", 0)),
            failed=_failed_units(counters) + out["donor_failures"],
            result=out,
        )
        rep.raw = {"counters": counters, "job_counters": counters}
        if traced:
            rep.raw["donors"] = pickle.loads(records.read_bytes())
        return rep

    def check(self, rep, sizes) -> list[str]:
        out = rep.result
        return check_range_sum(
            out["sum"], out["units"], out["expected"], sizes["items"],
            rep.raw["counters"].get("farm.units.requeued", 0),
        )


# ---------------------------------------------------------------------------
# farm_wire_durable: repro-server with journal + gateway, harness as donors
# ---------------------------------------------------------------------------


class FarmWireDurable(Workload):
    name = "farm_wire_durable"
    setup_only_cycles = 5

    def sizes(self, scale: float) -> dict:
        return {"items": max(100, round(9000 * scale)), "connections": DONORS}

    def repetition(self, work, seed, sizes, traced, setup_only=False) -> Rep:
        from repro.core.client import DonorClient
        from repro.core.problem import Problem
        from repro.rmi import connect

        rep_dir = work / f"rep-{time.monotonic_ns()}"
        rep_dir.mkdir()
        started = time.monotonic()
        server = stack.ServerProcess(rep_dir)
        proxy = None
        conns = []
        try:
            proxy = CountedProxy(server.wait_ready())
            data = problems.RangeSumDataManager(
                sizes["items"], offset=problems.range_offset(seed), unit_items=1
            )
            t = time.monotonic()
            job_id = stack.submit_job(
                proxy, Problem("wire", data, problems.RangeSumAlgorithm())
            )
            submit_ms = (time.monotonic() - t) * 1e3
            conns = [
                CountedProxy(connect("127.0.0.1", server.port, "taskfarm"))
                for _ in range(sizes["connections"])
            ]
            recorders = [tracing.Recorder(f"donor-{i}") for i in range(len(conns))]
            clients = [
                DonorClient(
                    rec.donor_id,
                    tracing.TimedPort(conn, rec) if traced else conn,
                    idle_sleep=stack.DONOR_IDLE_SLEEP,
                    sleep=rec.sleep if traced else time.sleep,
                )
                for conn, rec in zip(conns, recorders)
            ]
            if setup_only:
                return Rep(setup_s=time.monotonic() - started)
            barrier = threading.Barrier(len(clients) + 1)
            cpu_used = [0.0] * len(clients)
            errors: list[BaseException] = []

            def play(index: int) -> None:
                try:
                    barrier.wait()
                    cpu_start = time.thread_time()
                    clients[index].run()
                    cpu_used[index] = time.thread_time() - cpu_start
                except BaseException as exc:  # surfaced by the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=play, args=(i,), daemon=True)
                for i in range(len(clients))
            ]
            for thread in threads:
                thread.start()
            rss_start = server.rss_mb()
            barrier.wait()
            loop_start = time.monotonic()
            for thread in threads:
                thread.join(170.0)
            if errors or any(thread.is_alive() for thread in threads):
                raise RuntimeError(f"donor thread failed or hung: {errors}")
            status = stack.wait_job(proxy, job_id, ("done",), timeout=10.0)
            server_cpu = server.cpu_seconds()
            rss_end = server.rss_mb()
            counters = proxy.metrics_snapshot()["counters"]
            total, units = proxy.job_result(job_id)
            rep = Rep(
                setup_s=loop_start - started,
                makespan_s=status["finished_at"] - loop_start,
                items=sizes["items"],
                farm_cpu_s=server_cpu + sum(cpu_used),
                server_peak_rss_mb=server.peak_rss_mb(),
                result={"sum": total, "units": units, "expected": data.expected},
            )
            calls = proxy.calls + sum(c.calls for c in conns)
            raised = proxy.raised + sum(c.raised for c in conns)
            rep.attempted = int(counters.get("farm.units.issued", 0)) + calls
            rep.failed = (
                _failed_units(counters) + raised + sum(c.failures for c in clients)
            )
            rep.raw = {"counters": counters, "job_counters": counters}
            if traced:
                rep.raw.update(
                    server_cpu_s=server_cpu,
                    donor_cpu_s=sum(cpu_used),
                    rss_growth_mb=rss_end - rss_start,
                    submit_ms=submit_ms,
                    null_call_us=_null_call_us(proxy),
                    donors=[tracing.recorder_dict(rec) for rec in recorders],
                    journal_dir=server.journal_dir,
                )
            return rep
        finally:
            for conn in conns:
                conn.close()
            if proxy is not None:
                proxy.close()
            server.stop()

    def check(self, rep, sizes) -> list[str]:
        out = rep.result
        return check_range_sum(
            out["sum"], out["units"], out["expected"], sizes["items"],
            rep.raw["counters"].get("farm.units.requeued", 0),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DSearchLive(), DPRmlLive(), FarmHotpath(), FarmWireDurable())
}
