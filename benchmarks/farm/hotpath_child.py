"""One ``farm_hotpath`` repetition, in a fresh process.

A bare ``TaskFarmServer(policy=FixedGranularity(1))`` holding one
range-sum problem, and real ``DonorClient`` objects stepped round-robin
on one thread through ``InProcessServerPort``.  No wire, no journal, no
gateway: what is timed is the scheduling state machine plus the donor
loop.  The server runs on a virtual clock (one tick per call), so no
lease ever expires and every count repeats exactly; the donors keep the
real clock so ``compute_seconds`` stays a real duration.

Prints one JSON object on the last line of stdout; with ``--records``
it also pickles the donors' call records there (traced pass).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--donors", type=int, default=8)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--records", type=Path, default=None)
    args = parser.parse_args(argv)

    from repro.core.client import DonorClient, InProcessServerPort
    from repro.core.problem import Problem
    from repro.core.scheduler import FixedGranularity
    from repro.core.server import TaskFarmServer

    import problems
    import stack
    import tracing

    ticks = [0.0]

    def virtual_clock() -> float:
        ticks[0] += 1e-3
        return ticks[0]

    server = TaskFarmServer(policy=FixedGranularity(1))
    data = problems.RangeSumDataManager(args.items, offset=args.offset)
    problem = Problem("hotpath", data, problems.RangeSumAlgorithm())
    port = InProcessServerPort(server, clock=virtual_clock)
    recorders = []
    clients = []
    for i in range(args.donors):
        donor_port = port
        if args.records is not None:
            recorders.append(tracing.Recorder(f"donor-{i}"))
            donor_port = tracing.TimedPort(port, recorders[-1])
        clients.append(DonorClient(f"donor-{i}", donor_port, sleep=lambda _s: None))
    server.submit(problem, virtual_clock())
    for client in clients:
        client.port.register_donor(client.donor_id)

    rss_start = stack.proc_status_mb("self", "VmRSS")
    loop_start = time.monotonic()
    if not args.setup_only:
        # run_to_completion()'s loop, spelled out so the donors can be
        # wrapped: every donor takes one unit per round.
        while not server.all_complete():
            progressed = False
            for client in clients:
                progressed |= client.step()
            if not progressed:
                raise RuntimeError("no progress: the range-sum problem is stuck")
    loop_end = time.monotonic()

    out = {
        "loop_start": loop_start,
        "makespan_s": loop_end - loop_start,
        "cpu_s": time.process_time(),
        "peak_rss_mb": stack.proc_status_mb("self", "VmHWM"),
        "rss_growth_mb": stack.proc_status_mb("self", "VmRSS") - rss_start,
        "counters": server.obs.meters.snapshot()["counters"],
        "donor_failures": sum(c.failures for c in clients),
        "expected": data.expected,
    }
    if not args.setup_only:
        out["sum"], out["units"] = server.final_result(problem.problem_id)
    if args.records is not None:
        with open(args.records, "wb") as fh:
            pickle.dump([tracing.recorder_dict(rec) for rec in recorders], fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
