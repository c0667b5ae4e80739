"""``repro-server`` and ``repro-donor``: the deployment commands."""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from repro.cluster.local import ServerFacade, make_blob_fetch
from repro.core.blobs import DEFAULT_CACHE_BYTES
from repro.core.client import DonorClient
from repro.core.integrity import IntegrityPolicy
from repro.core.scheduler import AdaptiveGranularity
from repro.core.server import PipelineConfig, TaskFarmServer
from repro.rmi import RMIServer
from repro.rmi.datachannel import DataChannelServer
from repro.rmi.reconnect import ReconnectingPort


def server_main(argv: list[str] | None = None) -> int:
    """Host a task-farm server on a TCP port until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Host the task-farm server (donors connect with repro-donor).",
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument("--port", type=int, default=9317, help="TCP port")
    parser.add_argument(
        "--lease-timeout", type=float, default=300.0,
        help="seconds before an unanswered unit is reissued",
    )
    parser.add_argument(
        "--unit-target-seconds", type=float, default=60.0,
        help="adaptive granularity target per unit",
    )
    parser.add_argument(
        "--status-interval", type=float, default=0.0, metavar="SECONDS",
        help="print a live status table every SECONDS "
             "(0 disables; repro-status can also pull it remotely)",
    )
    durability = parser.add_argument_group(
        "durability",
        "write-ahead journal + periodic checkpoints: a kill -9'd "
        "server restarted with the same --journal DIR recovers to the "
        "exact state it died with",
    )
    durability.add_argument(
        "--journal", type=Path, default=None, metavar="DIR",
        help="journal every state mutation into DIR (fsync per record) "
             "and auto-recover from it on startup",
    )
    durability.add_argument(
        "--checkpoint-interval", type=float, default=60.0, metavar="SECONDS",
        help="with --journal: seconds between checkpoints that compact "
             "the journal (0 disables compaction; recovery then "
             "replays from genesis)",
    )
    integrity = parser.add_argument_group(
        "result integrity",
        "defend against byzantine (lying) donors by issuing units to "
        "several independent donors and comparing result digests",
    )
    integrity.add_argument(
        "--replication", type=int, default=1, metavar="K",
        help="issue every unit to K independent donors (1 disables)",
    )
    integrity.add_argument(
        "--quorum", type=int, default=2, metavar="N",
        help="matching digests needed to accept a replicated unit",
    )
    integrity.add_argument(
        "--spot-check-rate", type=float, default=0.0, metavar="RATE",
        help="fraction of units double-issued at random even when "
             "--replication is 1",
    )
    integrity.add_argument(
        "--quarantine-after", type=float, default=3.0, metavar="SUSPICION",
        help="suspicion score at which a donor stops receiving work",
    )
    pipe = parser.add_argument_group(
        "pipelined runtime",
        "overlap donor communication with computation: multi-lease "
        "depth for prefetching donors, speculative tail re-issue",
    )
    pipe.add_argument(
        "--lease-depth", type=int, default=0, metavar="DEPTH",
        help="max units leased to one donor at once "
             "(0 = unlimited, the historical behaviour; prefetching "
             "donors want 2)",
    )
    pipe.add_argument(
        "--tail-reissue", action="store_true",
        help="speculatively duplicate straggler units near problem end "
             "onto idle donors (exactly-once folding drops the loser)",
    )
    pipe.add_argument(
        "--tail-window", type=int, default=4, metavar="K",
        help="re-issue only when at most K units remain in flight",
    )
    gw = parser.add_argument_group(
        "job gateway",
        "multi-tenant front door: weighted fair-share dispatch, "
        "bounded admission queues, and a durable job lifecycle "
        "(submit jobs with repro-jobs)",
    )
    gw.add_argument(
        "--tenants", type=Path, default=None, metavar="FILE",
        help="tenant config file (tenant.<id>.weight = N etc.); "
             "enables the job gateway",
    )
    args = parser.parse_args(argv)

    try:
        policy = IntegrityPolicy(
            replication=args.replication,
            quorum=args.quorum,
            spot_check_rate=args.spot_check_rate,
            quarantine_after=args.quarantine_after,
            blacklist_after=max(args.quarantine_after, 10.0),
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        pipeline = PipelineConfig(
            lease_depth=args.lease_depth if args.lease_depth > 0 else None,
            tail_reissue=args.tail_reissue,
            tail_window=args.tail_window,
        )
    except ValueError as exc:
        parser.error(str(exc))

    server = TaskFarmServer(
        policy=AdaptiveGranularity(target_seconds=args.unit_target_seconds),
        lease_timeout=args.lease_timeout,
        integrity=policy,
        pipeline=pipeline,
    )
    gateway = None
    tenant_configs = []
    if args.tenants is not None:
        from repro.core.gateway import JobGateway, parse_tenants
        from repro.util.config import ConfigError, ConfigFile

        try:
            tenant_configs = parse_tenants(ConfigFile.from_path(args.tenants))
        except (ConfigError, OSError) as exc:
            parser.error(f"--tenants: {exc}")
        if not tenant_configs:
            parser.error(f"--tenants: no tenant.* keys in {args.tenants}")
        # Created before recovery so journaled gateway records have a
        # gateway to replay into; tenant definitions from the file are
        # upserted afterwards (the file wins over journaled configs).
        gateway = JobGateway(server)
    checkpoint_path = None
    if args.journal is not None:
        from repro.core.journal import DirStore, recover

        store = DirStore(args.journal)
        checkpoint_path = args.journal / "checkpoint.tfck"
        checkpoint = (
            checkpoint_path.read_bytes() if checkpoint_path.exists() else None
        )
        report = recover(
            server, store, checkpoint=checkpoint, now=time.monotonic(),
            gateway=gateway,
        )
        if report.restored_problems or report.replayed:
            print(
                f"recovered {len(report.restored_problems)} checkpointed "
                f"problem(s) + {report.replayed} journal record(s)"
                + (
                    f"; torn tail truncated ({report.torn_bytes} bytes)"
                    if report.torn_bytes
                    else ""
                ),
                flush=True,
            )
    if gateway is not None:
        now = time.monotonic()
        for config in tenant_configs:
            gateway.ensure_tenant(config, now)
        print(
            f"job gateway on: tenants {', '.join(gateway.tenant_ids())}",
            flush=True,
        )
    # Shared payload blobs go out over the bulk data channel; donors
    # learn its address via the facade and cache blobs by digest.
    data_channel = DataChannelServer(host=args.host, meters=server.obs.meters)
    facade = ServerFacade(server, data_channel=data_channel, gateway=gateway)
    # Reclaim leases even when every donor has vanished.
    facade.start_lease_sweeper()
    # Share the farm's meter registry so RMI dispatch telemetry lands in
    # the same snapshot repro-status reads.
    rmi = RMIServer(host=args.host, port=args.port, obs=server.obs)
    rmi.bind("taskfarm", facade)
    print(f"task-farm server listening on {rmi.host}:{rmi.port}", flush=True)
    print(
        f"data channel on {data_channel.host}:{data_channel.port}", flush=True
    )

    stop = {"flag": False}

    def handle_signal(_sig, _frame):
        stop["flag"] = True

    signal.signal(signal.SIGINT, handle_signal)
    signal.signal(signal.SIGTERM, handle_signal)
    next_status = (
        time.monotonic() + args.status_interval if args.status_interval > 0 else None
    )
    next_checkpoint = (
        time.monotonic() + args.checkpoint_interval
        if checkpoint_path is not None and args.checkpoint_interval > 0
        else None
    )
    try:
        while not stop["flag"]:
            time.sleep(0.5)
            if next_status is not None and time.monotonic() >= next_status:
                print(facade.status_report(), flush=True)
                next_status = time.monotonic() + args.status_interval
            if next_checkpoint is not None and time.monotonic() >= next_checkpoint:
                facade.checkpoint_to(checkpoint_path)
                next_checkpoint = time.monotonic() + args.checkpoint_interval
    finally:
        facade.stop_lease_sweeper()
        rmi.close()
        data_channel.close()
        print("server stopped", flush=True)
    return 0


def donor_main(argv: list[str] | None = None) -> int:
    """Run one donor loop against a remote server."""
    parser = argparse.ArgumentParser(
        prog="repro-donor",
        description="Donate this machine's spare cycles to a task-farm server.",
    )
    parser.add_argument("server", help="server address as host:port")
    parser.add_argument(
        "--name", default=None, help="donor id (default: hostname-pid)"
    )
    parser.add_argument(
        "--idle-sleep", type=float, default=2.0,
        help="seconds to wait when the server has no work",
    )
    parser.add_argument(
        "--max-units", type=int, default=None, help="stop after N units"
    )
    parser.add_argument(
        "--prefetch", action="store_true",
        help="pipelined mode: fetch unit N+1 in the background while "
             "unit N computes (the server should run --lease-depth 2)",
    )
    parser.add_argument(
        "--workers", default="1", metavar="N|auto",
        help="compute N leased units concurrently on a pool of worker "
             "processes ('auto' = one per CPU core); the donor "
             "advertises the count so the server scales lease depth "
             "and unit sizing to it",
    )
    parser.add_argument(
        "--cache-mb", type=float, default=DEFAULT_CACHE_BYTES / 2**20,
        metavar="N",
        help="byte budget of the shared-blob cache in MiB, per process "
             "(default %(default)g); a blob larger than this is fetched "
             "again for every unit that uses it",
    )
    args = parser.parse_args(argv)
    cache_bytes = int(args.cache_mb * 2**20)
    if cache_bytes < 1:
        parser.error("--cache-mb must be positive")

    if args.workers == "auto":
        import os as _os

        workers = _os.cpu_count() or 1
    else:
        try:
            workers = int(args.workers)
        except ValueError:
            parser.error(f"--workers must be an integer or 'auto', got {args.workers!r}")
        if workers < 1:
            parser.error("--workers must be >= 1")

    host, _, port_text = args.server.partition(":")
    if not port_text:
        parser.error("server must be host:port")
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"bad port {port_text!r}")

    if args.name:
        donor_id = args.name
    else:
        import os
        import socket as socketlib

        donor_id = f"{socketlib.gethostname()}-{os.getpid()}"

    # Donors outlive server restarts: on a connection-level failure the
    # port redials with jittered backoff and re-registers this donor
    # before retrying the call, so a recovered server knows us again.
    proxy = ReconnectingPort(
        host,
        port,
        "taskfarm",
        # A journaled server may be down for minutes while an operator
        # restarts it; a volunteer donor should outwait that, not give
        # up after the default ~20s of backoff.
        max_attempts=60,
        on_reconnect=lambda p: p.register_donor(donor_id, workers),
    )
    try:
        client = DonorClient(
            donor_id,
            proxy,
            idle_sleep=args.idle_sleep,
            blob_fetch=make_blob_fetch(proxy),
            prefetch=args.prefetch,
            workers=workers,
            cache_bytes=cache_bytes,
        )
        print(
            f"donor {donor_id} connected to {host}:{port}"
            + (f" ({workers} workers)" if workers > 1 else ""),
            flush=True,
        )
        units = client.run(max_units=args.max_units)
        print(f"donor {donor_id} done after {units} units", flush=True)
    finally:
        proxy.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(server_main())
