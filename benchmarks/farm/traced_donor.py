"""``repro-donor`` with the benchmark's timing wrappers (traced pass).

Builds the same ``DonorClient`` the CLI builds — reconnecting RMI port,
data-channel blob fetch, serial loop — but hands it a
:class:`tracing.TimedPort`, a timed ``blob_fetch`` and a timed
``sleep``, and dumps the records when the loop ends.  The program under
test is not touched; every span is taken at one of its injection points.
"""

from __future__ import annotations

import argparse
import resource
import sys


def _dprml_tag(payload):
    # ("place", tree, taxon, edges) / ("polish", newick, passes); gate
    # units carry a bare int.
    if isinstance(payload, tuple) and len(payload) >= 3:
        return payload[0], payload[2]
    return None


#: What a workload's units are grouped by in the span analysis.
TAGGERS = {"dprml_live": _dprml_tag}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("server")
    parser.add_argument("--name", required=True)
    parser.add_argument("--idle-sleep", type=float, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.cluster.local import make_blob_fetch
    from repro.core.client import DonorClient
    from repro.rmi.reconnect import ReconnectingPort

    import tracing

    host, _, port = args.server.partition(":")
    rec = tracing.Recorder(args.name, TAGGERS.get(args.workload))
    proxy = ReconnectingPort(
        host, int(port), "taskfarm",
        on_reconnect=lambda p: p.register_donor(args.name, 1),
    )
    try:
        client = DonorClient(
            args.name,
            tracing.TimedPort(proxy, rec),
            idle_sleep=args.idle_sleep,
            blob_fetch=rec.blob_fetch(make_blob_fetch(proxy)),
            sleep=rec.sleep,
        )
        client.run()
    finally:
        proxy.close()
    tracing.dump_recorder(
        rec,
        args.spans,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
