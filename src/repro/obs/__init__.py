"""Live observability: streaming meters + span tracing.

The journal (:mod:`repro.core.journal`) is the system's flight
recorder — every decision, durable, replayed after a crash.  This
package is the cockpit instrument panel: counters/gauges/histograms
updated while the farm runs (:mod:`repro.obs.meters`) and span trees
for individual operations (:mod:`repro.obs.trace`).  One
:class:`Observability` bundle is threaded through the server, the RMI
layer, the data channel and both cluster drivers, so a live deployment
and a simulated run emit identical telemetry and ``repro-status`` can
render either.

End-of-run invariant (enforced by tests): streaming counter totals
reconcile exactly with the journal's records of the same decisions.
"""

from __future__ import annotations

from repro.obs.meters import (
    BYTES_BUCKETS,
    ITEMS_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MeterRegistry,
)
from repro.obs.trace import Span, Tracer
from repro.obs import unitstats


class Observability:
    """One registry + one tracer, shared across a deployment's layers."""

    def __init__(
        self,
        meters: MeterRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.meters = meters or MeterRegistry()
        self.tracer = tracer or Tracer()


__all__ = [
    "BYTES_BUCKETS",
    "ITEMS_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MeterRegistry",
    "Observability",
    "Span",
    "Tracer",
    "unitstats",
]
