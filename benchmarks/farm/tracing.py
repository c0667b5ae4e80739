"""Benchmark-owned tracing: timing wrappers around a donor's injection
points, and the span arithmetic that turns their records into
per-layer numbers.

Nothing in the program is instrumented.  A :class:`TimedPort` wraps
whatever ``ServerPort`` the donor talks to (an RMI proxy or an
``InProcessServerPort``), :meth:`Recorder.blob_fetch` and
:meth:`Recorder.sleep` wrap the two other hooks ``DonorClient`` takes.
Records are appended to in-memory lists (one tuple per call, ~1 µs) and
only turned into spans — name, start, end, parent, unit — after the run
ends.

Span tree of one donor::

    run                          DonorClient.run(), first call -> last
      step            unit u     request_work granted -> its submit returned
        request_work  unit u
        get_algorithm            (first unit of a problem)
        compute       unit u     WorkResult.compute_seconds, ending at submit
          blob_fetch             (first use of a blob)
        submit_result unit u
      poll                       request_work -> None, all_complete
      sleep                      idle back-off

A span's *self time* is its duration minus what its children cover; the
``step`` self time is the donor loop's own cost per unit (result
pickling for the byte estimate, ``WorkResult`` construction, meter
folding), the ``run`` self time what the loop spends between steps.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Any, Callable

#: CLOCK_MONOTONIC: system-wide on Linux, so donor-process spans line up
#: with the server's own ``started_at`` / ``finished_at``.
now = time.monotonic


class Recorder:
    """In-memory record of one donor's calls."""

    def __init__(self, donor_id: str, tagger: Callable[[Any], Any] | None = None):
        self.donor_id = donor_id
        self.tagger = tagger
        # (method, start, end, problem_id, unit_id, detail)
        self.calls: list[tuple] = []
        # (start, end, nbytes)
        self.fetches: list[tuple] = []
        # (start, end)
        self.sleeps: list[tuple] = []
        # unit key -> (items, tag) for granted units
        self.granted: dict[tuple, tuple] = {}
        # unit key -> (compute_seconds, output_bytes)
        self.results: dict[tuple, tuple] = {}
        # problem id -> [assignment, result] of its largest unit, for the
        # serialisation probes
        self.samples: dict[int, list] = {}
        self.raised = 0

    def blob_fetch(self, inner: Callable) -> Callable:
        def fetch(problem_id, ref):
            start = now()
            data = inner(problem_id, ref)
            self.fetches.append((start, now(), len(data)))
            return data

        return fetch

    def sleep(self, seconds: float) -> None:
        start = now()
        time.sleep(seconds)
        self.sleeps.append((start, now()))


class TimedPort:
    """A ``ServerPort`` that times every call into the wrapped port."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._rec = recorder

    def request_work(self, donor_id):
        rec = self._rec
        start = now()
        try:
            assignment = self._inner.request_work(donor_id)
        except Exception:
            rec.raised += 1
            raise
        end = now()
        if assignment is None:
            rec.calls.append(("request_work", start, end, None, None, False))
        else:
            key = (assignment.problem_id, assignment.unit_id)
            tag = rec.tagger(assignment.payload) if rec.tagger else None
            rec.granted[key] = (assignment.items, tag)
            rec.calls.append(("request_work", start, end, *key, True))
            sample = rec.samples.get(assignment.problem_id)
            if sample is None or assignment.items > sample[0].items:
                rec.samples[assignment.problem_id] = [assignment, None]
        return assignment

    def submit_result(self, result):
        rec = self._rec
        start = now()
        try:
            accepted = self._inner.submit_result(result)
        except Exception:
            rec.raised += 1
            raise
        end = now()
        key = (result.problem_id, result.unit_id)
        rec.results[key] = (result.compute_seconds, result.output_bytes)
        rec.calls.append(("submit_result", start, end, *key, accepted))
        sample = rec.samples.get(result.problem_id)
        if sample is not None and sample[0].unit_id == result.unit_id:
            sample[1] = result
        return accepted

    def report_failure(self, problem_id, unit_id, donor_id, error):
        start = now()
        self._inner.report_failure(problem_id, unit_id, donor_id, error)
        self._rec.calls.append(
            ("report_failure", start, now(), problem_id, unit_id, error)
        )

    def __getattr__(self, name):
        # register/deregister/heartbeat/get_algorithm/get_shared_blob/
        # all_complete/data_address: timed, no unit attached.
        method = getattr(self._inner, name)
        rec = self._rec

        def timed(*args, **kwargs):
            start = now()
            try:
                value = method(*args, **kwargs)
            except Exception:
                rec.raised += 1
                raise
            rec.calls.append((name, start, now(), None, None, None))
            return value

        return timed


def recorder_dict(rec: Recorder, **extra) -> dict:
    """One donor's records in the form the span arithmetic reads."""
    return {
        "donor_id": rec.donor_id,
        "calls": rec.calls,
        "fetches": rec.fetches,
        "sleeps": rec.sleeps,
        "granted": rec.granted,
        "results": rec.results,
        "samples": rec.samples,
        "raised": rec.raised,
        **extra,
    }


def dump_recorder(rec: Recorder, path, **extra) -> None:
    """Write one donor's records for the harness to merge (a traced
    donor process calls this at exit)."""
    with open(path, "wb") as fh:
        pickle.dump(recorder_dict(rec, **extra), fh)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def build_spans(donor: dict) -> list[dict]:
    """Turn one donor's call records into the span tree above."""
    spans: list[dict] = []

    def add(name, start, end, parent, unit=None):
        spans.append(
            {
                "id": len(spans),
                "donor": donor["donor_id"],
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "unit": unit,
            }
        )
        return len(spans) - 1

    calls = donor["calls"]
    if not calls:
        return spans
    run = add("run", calls[0][1], calls[-1][2], None)
    fetches = list(donor["fetches"])
    step = None
    for method, start, end, pid, uid, detail in calls:
        unit = None if uid is None else (pid, uid)
        if method == "request_work" and detail:
            step = add("step", start, end, run, unit)
            add("request_work", start, end, step, unit)
        elif method in ("submit_result", "report_failure") and step is not None:
            if method == "submit_result":
                seconds = donor["results"][unit][0]
                compute = add("compute", start - seconds, start, step, unit)
                while fetches and fetches[0][1] <= start:
                    f_start, f_end, _n = fetches.pop(0)
                    add("blob_fetch", f_start, f_end, compute, unit)
            add(method, start, end, step, unit)
            spans[step]["end"] = end
            step = None
        elif step is not None:
            add(method, start, end, step, spans[step]["unit"])
        else:
            add("poll" if method in ("request_work", "all_complete") else method,
                start, end, run)
    for start, end in donor["sleeps"]:
        add("sleep", start, end, run)
    return spans


def self_seconds(spans: list[dict], name: str) -> float:
    """Summed self time of every span called *name*."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return sum(
        (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
        for s in spans
        if s["name"] == name
    )


def total_seconds(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
