"""Streaming metrics: counters, gauges and fixed-bucket histograms.

The journal (:mod:`repro.core.journal`) records each decision for
replay; these meters count them, answering "what is happening *now*?".
They are updated inline as the farm runs and
:meth:`MeterRegistry.snapshot` works mid-flight, so an operator (or the
status CLI) can watch a multi-day job as it runs.

Design rules:

* No clocks.  Meters record magnitudes, never wall-time; producers that
  want durations measure them with whatever time base they run under
  (wall clock live, virtual time in the simulator) and feed the number
  in.  This keeps live and simulated runs emitting identical telemetry.
* Thread-safe.  The live cluster updates meters from RMI connection
  threads concurrently with snapshot readers.
* Reconcilable.  Producers update counters at the same program points
  that journal each decision, so end-of-run totals must equal the
  journal's records (``farm.units.completed`` ≡ ``unit.fold``,
  ``farm.problems.submitted`` ≡ ``problem.submit``) — a property the
  test suite enforces.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

#: Bucket upper bounds (seconds) for unit/call latency histograms —
#: log-spaced from 1 ms to ~4.5 hours, wide enough for both RMI calls
#: and multi-minute work units.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0, 1800.0, 16200.0,
)

#: Bucket upper bounds (bytes) for transfer-size histograms.
BYTES_BUCKETS: tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
    8388608.0, 67108864.0,
)

#: Bucket upper bounds (items) for unit-size histograms.
ITEMS_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 10000.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (donors registered, problems running)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram of observed magnitudes.

    ``bounds`` are inclusive upper edges of the finite buckets; one
    overflow bucket catches everything beyond the last edge.  All
    derived statistics are defined (as 0.0) for an empty histogram —
    a farm that has not completed a unit yet must still snapshot
    cleanly.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: Iterable[float]):
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        if any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name!r} bucket edges must strictly increase")
        self.name = name
        self.bounds = edges
        self._counts = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            if self._count == 0:
                self._min = self._max = value
            else:
                self._min = min(self._min, value)
                self._max = max(self._max, value)
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (0 for an empty histogram).

        Returns the upper edge of the bucket holding the q-th observation
        (clamped to the observed max for the overflow bucket).
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            seen = 0
            for i, c in enumerate(self._counts):
                seen += c
                if seen >= rank and c:
                    if i < len(self.bounds):
                        return min(self.bounds[i], self._max)
                    return self._max
            return self._max

    def summary(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        mean = total / count if count else 0.0
        return {
            "bounds": list(self.bounds),
            "counts": counts,
            "count": count,
            "sum": total,
            "min": lo if count else 0.0,
            "max": hi if count else 0.0,
            "mean": mean,
        }


class MeterRegistry:
    """Named meters, created on first use.

    A whole deployment (server state machine, RMI layer, data channel,
    cluster driver) shares one registry so the status CLI reads a single
    coherent snapshot.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            meter = self._counters.get(name)
            if meter is None:
                meter = self._counters[name] = Counter(name)
            return meter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            meter = self._gauges.get(name)
            if meter is None:
                meter = self._gauges[name] = Gauge(name)
            return meter

    def histogram(self, name: str, bounds: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        with self._lock:
            meter = self._histograms.get(name)
            if meter is None:
                meter = self._histograms[name] = Histogram(name, bounds)
            return meter

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time, JSON-able view of every meter.

        Safe to call mid-run from any thread; each meter is read under
        its own lock, so the snapshot is per-meter consistent.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.summary() for h in histograms},
        }
