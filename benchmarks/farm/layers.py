"""Per-layer metrics of one traced repetition.

Three sources, all outside the program:

* **spans** — the donors' :class:`tracing.Recorder` records (timed
  ``ServerPort``, ``blob_fetch`` and ``sleep``);
* **counters** — the server's own meters, read once at job end through
  ``metrics_snapshot()`` (the child's registry for ``farm_hotpath``),
  and ``/proc``;
* **probes** — a layer's public function timed directly on objects
  captured from the workload: a real ``Assignment`` and ``WorkResult``,
  the journal the run left behind, the problem's largest shared blob,
  and a single-donor in-process reference run of the same job.

A metric a workload does not exercise reads 0 (for example ``wire.*``
on ``farm_hotpath``, ``dsearch.*`` anywhere but ``dsearch_live``).
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

import tracing
from workloads import DONORS, UNIT_TARGET_SECONDS, LiveWorkload, Rep, Workload

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAMES = [m["name"] for m in SPEC["per_layer"]]


def _us(seconds: float) -> float:
    return seconds * 1e6


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _window(donor: dict, pid, t0: float, t1: float) -> dict:
    """The part of one donor's records that belongs to the job: unit
    calls of problem *pid* (every problem when None), and unit-less
    calls, fetches and sleeps that start inside ``[t0, t1]``."""

    def ours(start, call_pid):
        if call_pid is not None:
            return pid is None or call_pid == pid
        return t0 <= start <= t1

    return {
        **donor,
        "calls": [c for c in donor["calls"] if ours(c[1], c[3])],
        "fetches": [f for f in donor["fetches"] if t0 <= f[0] <= t1],
        "sleeps": [s for s in donor["sleeps"] if t0 <= s[0] <= t1],
        "granted": {k: v for k, v in donor["granted"].items() if pid in (None, k[0])},
        "results": {k: v for k, v in donor["results"].items() if pid in (None, k[0])},
    }


def per_layer(
    workload: Workload, work: Path, seed: int, sizes: dict, plain: Rep, traced: Rep,
    calib_ms: list[float], disturbed_reps: int,
) -> tuple[dict[str, float], list[str]]:
    """Every ``per_layer`` metric of BENCHMARK.json, plus correctness
    failures found on the way (reference digest, replay).  *calib_ms*
    and *disturbed_reps* are the noise guard's findings."""
    out = dict.fromkeys(NAMES, 0.0)
    bad: list[str] = []
    raw = traced.raw
    live = isinstance(workload, LiveWorkload)
    in_process = workload.name == "farm_hotpath"
    if live:
        pid = raw["status"]["problem_id"]
        t0, t1 = raw["status"]["started_at"], raw["status"]["finished_at"]
    else:
        pid, t0, t1 = None, float("-inf"), float("inf")
    donors = [_window(d, pid, t0, t1) for d in raw["donors"]]
    spans = [tracing.build_spans(d) for d in donors]  # one tree per donor
    counters = raw["job_counters"]
    units = counters.get("farm.units.completed", 0.0)

    # -- core.server ---------------------------------------------------
    calls = sorted((c for d in donors for c in d["calls"]), key=lambda c: c[1])
    request = [c[2] - c[1] for c in calls if c[0] == "request_work" and c[5]]
    submit = [c[2] - c[1] for c in calls if c[0] == "submit_result"]
    if in_process and request:
        decile = max(1, len(request) // 10)
        first, last = _mean(request[:decile]), _mean(request[-decile:])
        out.update({
            "server.request_work.us": _us(_mean(request)),
            "server.request_work.p99_us": _us(tracing.percentile(request, 99)),
            "server.submit_result.us": _us(_mean(submit)),
            "server.submit_result.p99_us": _us(tracing.percentile(submit, 99)),
            "server.request_work.first_decile_us": _us(first),
            "server.request_work.last_decile_us": _us(last),
            "server.hotpath.growth_ratio": last / first,
        })
        # One thread, CPU-bound: time inside the port is server CPU.
        server_cpu = sum(c[2] - c[1] for c in calls)
        donor_cpu = traced.result["cpu_s"] - server_cpu
        rss_growth = traced.result["rss_growth_mb"]
        donor_rss = traced.result["peak_rss_mb"]
    else:
        server_cpu, donor_cpu = raw["server_cpu_s"], raw["donor_cpu_s"]
        rss_growth = raw["rss_growth_mb"]
        donor_rss = (
            max(d["peak_rss_mb"] for d in donors)
            if live
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    issued = counters.get("farm.units.issued", 0.0)
    out.update({
        "server.cpu_s": server_cpu,
        "server.rss_growth_mb": rss_growth,
        "server.units.issued": issued,
        "server.units.completed": units,
        "server.units.requeued": counters.get("farm.units.requeued", 0.0),
        "server.units.duplicate": counters.get("farm.units.duplicate", 0.0),
        "server.units.stale": counters.get("farm.units.stale", 0.0),
        "server.leases.expired": counters.get("farm.leases.expired", 0.0),
        "server.idle_polls": counters.get("farm.pipeline.idle.polls", 0.0),
        "server.useful_lease_pct": 100.0 * units / issued if issued else 0.0,
    })

    # -- core.scheduler ------------------------------------------------
    items = [v[0] for d in donors for v in d["granted"].values()]
    out["scheduler.units_per_job"] = units
    out["scheduler.items_per_unit.p50"] = tracing.median_or_zero(items)

    # -- cluster.local + rmi: the wire as the donor sees it ---------------
    if not in_process:
        polls = [c for c in calls if c[0] == "request_work"]
        out.update({
            "wire.request_work.p50_us": _us(tracing.median_or_zero(request)),
            "wire.request_work.p99_us": _us(tracing.percentile(request, 99)),
            "wire.submit_result.p50_us": _us(tracing.median_or_zero(submit)),
            "wire.submit_result.p99_us": _us(tracing.percentile(submit, 99)),
            "wire.calls": float(len(calls)),
            "wire.busy_s": sum(c[2] - c[1] for c in calls),
            "wire.empty_poll_pct": 100.0 * sum(not c[5] for c in polls) / len(polls),
            "rmi.null_call.p50_us": raw["null_call_us"],
            "rmi.calls": counters.get("rmi.calls", 0.0),
            "rmi.bytes.sent": counters.get("rmi.bytes.sent", 0.0),
            "rmi.bytes.received": counters.get("rmi.bytes.received", 0.0),
            "gateway.submit_job.ms": raw["submit_ms"],
        })
        _journal_metrics(out, raw, work, counters, units, len(calls))
    if live:
        out["gateway.promote.ms"] = 1e3 * (t0 - raw["gate_status"]["finished_at"])

    # -- rmi.serialize: probes on a captured Assignment / WorkResult ------
    sample = next(
        (s for d in donors for p, s in d["samples"].items()
         if pid in (None, p) and s[1] is not None),
        None,
    )
    if sample is not None:
        _serialize_probe(out, *sample)

    # -- core.client ----------------------------------------------------
    busy = sum(v[0] for d in donors for v in d["results"].values())
    sleeps = [s for d in donors for s in d["sleeps"]]
    out.update({
        "donor.compute.busy_s": busy,
        "donor.compute.util_pct": 100.0 * busy / (
            (DONORS if not in_process else 1) * traced.makespan_s
        ),
        "donor.loop.self_s": sum(tracing.self_seconds(t, "step") for t in spans),
        "donor.idle.wait_s": sum(e - s for s, e in sleeps),
        "donor.idle.polls": float(len(sleeps)),
        "donor.cpu_s": donor_cpu,
        "donor.peak_rss_mb": donor_rss,
        "donor.units": float(sum(len(d["results"]) for d in donors)),
        "donor.failures": float(
            sum(1 for c in calls if c[0] == "report_failure")
        ),
    })

    # -- core.blobs + rmi.datachannel --------------------------------------
    fetches = [f for d in donors for f in d["fetches"]]
    hits = counters.get("farm.cache.hits", 0.0)
    misses = counters.get("farm.cache.misses", 0.0)
    out.update({
        "blob.fetch.calls": float(len(fetches)),
        "blob.fetch.bytes": float(sum(f[2] for f in fetches)),
        "blob.fetch.busy_s": sum(f[1] - f[0] for f in fetches),
        "blob.cache.hit_pct": 100.0 * hits / (hits + misses) if hits + misses else 0.0,
    })
    if live:
        out["blob.fetch.mb_per_s"] = _blob_probe(raw["problem"])

    # -- apps: reference run, replay, application probes -------------------
    if live:
        bad += _application_metrics(out, workload, seed, sizes, traced, donors, spans)

    # -- the benchmark itself --------------------------------------------
    # How long after the start the last donor had its first answer from
    # the server (a unit, or "nothing yet" at a DPRml stage of one unit).
    first_answers = [
        min((c[2] for c in d["calls"] if c[0] == "request_work"), default=t0)
        for d in donors
    ]
    if live:
        skew = max(first_answers) - t0
    elif in_process:
        skew = 0.0
    else:
        skew = max(first_answers) - min(first_answers)
    out.update({
        "bench.trace_overhead_pct": 100.0 * (traced.makespan_s / plain.makespan_s - 1.0),
        "bench.calib_ms": statistics.median(calib_ms),
        "bench.disturbed_reps": float(disturbed_reps),
        "bench.start_skew_ms": 1e3 * skew,
    })
    return out, bad


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _timed(fn, repeat: int) -> float:
    """Median seconds of ``fn()`` over *repeat* calls."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _serialize_probe(out: dict, assignment, result) -> None:
    from repro.rmi import serialize

    a_frame, r_frame = serialize.dumps(assignment), serialize.dumps(result)
    out.update({
        "rmi.dumps.assignment_us": _us(_timed(lambda: serialize.dumps(assignment), 200)),
        "rmi.loads.assignment_us": _us(_timed(lambda: serialize.loads(a_frame), 200)),
        "rmi.dumps.result_us": _us(_timed(lambda: serialize.dumps(result), 200)),
        "rmi.loads.result_us": _us(_timed(lambda: serialize.loads(r_frame), 200)),
        "rmi.frame.assignment_bytes": float(len(a_frame)),
        "rmi.frame.result_bytes": float(len(r_frame)),
    })


def _journal_metrics(out, raw, work: Path, counters, units, acknowledged) -> None:
    """Journal counters of the job, then probes on the journal the run
    left behind (the server has stopped; its directory is still there)."""
    from repro.core.gateway import JobGateway
    from repro.core.journal import (
        DirStore, JournalWriter, MemoryStore, read_journal, recover,
    )
    from repro.core.server import TaskFarmServer

    records = counters.get("farm.journal.records", 0.0)
    fsyncs = counters.get("farm.journal.fsyncs", 0.0)
    out.update({
        "journal.records": records,
        "journal.fsyncs": fsyncs,
        "journal.bytes": counters.get("farm.journal.bytes", 0.0),
        "journal.records_per_unit": records / units if units else 0.0,
        "journal.fsyncs_per_call": fsyncs / acknowledged if acknowledged else 0.0,
    })
    source = DirStore(raw["journal_dir"])
    try:
        captured, _next_lsn, _torn = read_journal(source)
    finally:
        source.close()
    captured = captured[-2000:]

    def append_all(store) -> list[float]:
        writer = JournalWriter(store)
        samples = []
        for record in captured:
            fields = {k: v for k, v in record.items() if k not in ("lsn", "kind", "now")}
            start = time.perf_counter()
            writer.append(record["kind"], record["now"], **fields)
            samples.append(time.perf_counter() - start)
        return samples

    probe_store = DirStore(work / f"journal-probe-{time.monotonic_ns()}")
    try:
        synced = append_all(probe_store)
    finally:
        probe_store.close()
    out.update({
        "journal.append.p50_us": _us(statistics.median(synced)),
        "journal.append.p99_us": _us(tracing.percentile(synced, 99)),
        "journal.append_nosync.us": _us(statistics.median(append_all(MemoryStore()))),
    })

    server = TaskFarmServer()
    gateway = JobGateway(server)
    store = DirStore(raw["journal_dir"])
    try:
        start = time.perf_counter()
        report = recover(server, store, now=0.0, gateway=gateway)
        elapsed = time.perf_counter() - start
    finally:
        store.close()
    out["journal.recover.records_per_s"] = report.replayed / elapsed


def _blob_probe(problem) -> float:
    """MB/s of ``fetch_data`` for the problem's largest shared blob over
    a loopback data channel (0 when the problem shares nothing)."""
    from repro.rmi.datachannel import DataChannelServer, fetch_data

    data_manager = problem.data_manager
    keys = data_manager.shared_blob_keys()
    if not keys:
        return 0.0
    key = max(keys, key=lambda k: len(data_manager.shared_blob(k)))
    data = data_manager.shared_blob(key)
    with DataChannelServer() as channel:
        channel.retain(key, data)
        seconds = _timed(lambda: fetch_data(channel.host, channel.port, key), 7)
    return len(data) / 1e6 / seconds


class _CapturePort:
    """InProcessServerPort that keeps every assignment and result."""

    def __init__(self, server):
        from repro.core.client import InProcessServerPort

        self._port = InProcessServerPort(server)
        self.assignments: list = []
        self.results: list = []

    def request_work(self, donor_id):
        assignment = self._port.request_work(donor_id)
        if assignment is not None:
            self.assignments.append(assignment)
        return assignment

    def submit_result(self, result):
        self.results.append(result)
        return self._port.submit_result(result)

    def __getattr__(self, name):
        return getattr(self._port, name)


def _application_metrics(out, workload, seed, sizes, traced, donors, spans) -> list[str]:
    """Reference run (single donor, in process, no wire), then replay of
    its results through a fresh DataManager: the digest every live
    repetition must equal, and the application-layer probes."""
    from repro.core.client import DonorClient
    from repro.core.scheduler import AdaptiveGranularity
    from repro.core.server import TaskFarmServer

    bad = []
    problem, _items, _context = workload.build(seed, sizes)
    server = TaskFarmServer(policy=AdaptiveGranularity(target_seconds=UNIT_TARGET_SECONDS))
    port = _CapturePort(server)
    server.submit(problem, time.monotonic())
    DonorClient("reference", port, sleep=lambda _s: None).run()
    reference = Rep(setup_s=0.0, result=server.final_result(problem.problem_id))
    if workload.digest(reference) != workload.digest(traced):
        bad.append("live result differs from the single-donor in-process reference")

    # Replay: a single serial donor folds in cut order, so a fresh
    # DataManager fed the same cuts and results walks the same states.
    fresh, _items, _context = workload.build(seed, sizes)
    data_manager = fresh.data_manager
    cut, fold = [], []
    for assignment, result in zip(port.assignments, port.results):
        start = time.perf_counter()
        data_manager.next_unit(assignment.items)
        middle = time.perf_counter()
        data_manager.handle_result(result)
        cut.append(middle - start)
        fold.append(time.perf_counter() - middle)
    replayed = Rep(setup_s=0.0, result=data_manager.final_result())
    if workload.digest(replayed) != workload.digest(reference):
        bad.append("replaying the reference results gives another answer")

    results = [v for d in donors for v in d["results"].values()]
    if workload.name == "dsearch_live":
        algorithm = problem.algorithm
        source = problem.data_manager
        cells = sum(
            algorithm.cost((source.queries, source.database, a.payload[2]))
            for a in port.assignments
        )
        out.update({
            "dsearch.compute.cells_per_s": cells / sum(r.compute_seconds for r in port.results),
            "dsearch.fold.us_per_unit": _us(_mean(fold)),
            "dsearch.next_unit.us": _us(_mean(cut)),
            "dsearch.build_problem.ms": traced.raw["build_ms"],
            "dsearch.result.bytes_per_unit": _mean(r[1] for r in results),
        })
    else:
        place = [r for r in port.results if r.value[0] == "place"]
        stages = _stages(donors)
        steps = sum(tracing.total_seconds(t, "step") for t in spans)
        out.update({
            "dprml.compute.evals_per_s": sum(r.items for r in place)
            / sum(r.compute_seconds for r in place),
            "dprml.fold.ms_per_stage": 1e3 * sum(fold) / len(stages),
            "dprml.stages": float(len(stages)),
            "dprml.barrier.idle_s": len(donors) * traced.makespan_s - steps,
            "dprml.stage_turnaround.ms": 1e3 * _mean(
                nxt["first_grant"] - cur["last_submit"]
                for cur, nxt in zip(stages, stages[1:])
            ),
        })
    return bad


def _stages(donors: list[dict]) -> list[dict]:
    """Barrier-separated stages of a traced DPRml job, in time order:
    units grouped by the tag the traced donor attached (task kind +
    taxon), with the time the first unit of the stage reached a donor
    and the time its last result was acknowledged."""
    stages: dict = {}
    for donor in donors:
        for name, _start, end, pid, uid, _detail in donor["calls"]:
            if uid is None or name not in ("request_work", "submit_result"):
                continue
            tag = donor["granted"][(pid, uid)][1]
            stage = stages.setdefault(
                tag, {"first_grant": float("inf"), "last_submit": float("-inf")}
            )
            if name == "request_work":
                stage["first_grant"] = min(stage["first_grant"], end)
            else:
                stage["last_submit"] = max(stage["last_submit"], end)
    return sorted(stages.values(), key=lambda s: s["first_grant"])
