"""Tests for the live-system extensions: donor heartbeats, the
reconnecting port, and the farm status report."""

import threading
import time

import pytest

from repro.cluster.local import ServerFacade
from repro.core.client import DonorClient, InProcessServerPort
from repro.core.problem import FunctionAlgorithm, Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from repro.core.status import render_status, snapshot
from repro.rmi import RMIServer
from repro.rmi.errors import RMIError
from repro.rmi.reconnect import ReconnectingPort
from tests.helpers import ManualClock, RangeSumAlgorithm, RangeSumDataManager


class TestHeartbeat:
    def test_heartbeat_keeps_long_unit_alive(self):
        """A unit longer than the lease survives when heartbeats flow."""
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=0.3)
        facade = ServerFacade(server)
        pid = facade.submit(
            Problem(
                "slow",
                RangeSumDataManager(10),
                FunctionAlgorithm(lambda span: (time.sleep(1.0), sum(range(*span)))[1]),
            )
        )
        client = DonorClient("d0", facade, heartbeat_interval=0.1, idle_sleep=0.01)
        client.run()
        assert client.heartbeats_sent >= 2
        assert facade.final_result(pid) == sum(range(10))
        # No requeue happened: the lease was renewed throughout.
        assert server.obs.meters.counter("farm.units.requeued").value == 0

    def test_without_heartbeat_long_unit_expires(self):
        """Without heartbeats, a unit outliving its lease is reissued
        to the next donor that asks."""
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=0.2)
        facade = ServerFacade(server)
        facade.submit(
            Problem("slow", RangeSumDataManager(10), RangeSumAlgorithm())
        )
        facade.register_donor("d0")
        a = facade.request_work("d0")
        assert a is not None
        time.sleep(0.3)  # d0 is "stuck"; lease lapses
        facade.register_donor("d1")
        b = facade.request_work("d1")
        assert b is not None and b.unit_id == a.unit_id
        assert server.obs.meters.counter("farm.units.requeued").value == 1

    def test_bad_interval_rejected(self):
        server = TaskFarmServer()
        port = InProcessServerPort(server)
        with pytest.raises(ValueError):
            DonorClient("d0", port, heartbeat_interval=0.0)


class TestReconnectingPort:
    def _fresh_farm(self, n=100):
        server = TaskFarmServer(policy=FixedGranularity(20), lease_timeout=30.0)
        facade = ServerFacade(server)
        pid = facade.submit(
            Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm())
        )
        rmi = RMIServer()
        rmi.bind("taskfarm", facade)
        return server, facade, rmi, pid

    def test_normal_operation_passthrough(self):
        _server, facade, rmi, pid = self._fresh_farm()
        port = ReconnectingPort(rmi.host, rmi.port)
        try:
            client = DonorClient("d0", port, idle_sleep=0.01)
            client.run()
            assert facade.final_result(pid) == sum(range(100))
            assert port.reconnects == 0
        finally:
            port.close()
            rmi.close()

    def test_survives_server_restart(self):
        """Kill the RMI endpoint mid-run; the donor redials a new one
        bound to the same farm and finishes the job."""
        server, facade, rmi1, pid = self._fresh_farm(200)
        host, port_num = rmi1.host, rmi1.port

        registered = []

        def on_reconnect(proxy):
            registered.append(1)
            proxy.register_donor("d0")

        port = ReconnectingPort(
            host, port_num, on_reconnect=on_reconnect,
            base_backoff=0.05, max_attempts=40, sleep=time.sleep,
        )
        port.register_donor("d0")
        done = 0
        # Work a few units, then "crash" the endpoint.
        for _ in range(2):
            a = port.request_work("d0")
            client = DonorClient("d0", port)
            port.submit_result(client.execute(a))
            done += 1
        rmi1.close()

        # Restart on the same address shortly after, same farm state.
        def restart():
            time.sleep(0.3)
            rmi2 = RMIServer(host=host, port=port_num)
            rmi2.bind("taskfarm", facade)
            restart.server = rmi2  # type: ignore[attr-defined]

        thread = threading.Thread(target=restart)
        thread.start()
        try:
            client = DonorClient("d0", port, idle_sleep=0.01)
            client.run()
            assert facade.final_result(pid) == sum(range(200))
            assert port.reconnects >= 1
        finally:
            thread.join()
            restart.server.close()  # type: ignore[attr-defined]
            port.close()

    def test_gives_up_after_max_attempts(self):
        port = ReconnectingPort(
            "127.0.0.1", 1, max_attempts=2, base_backoff=0.01, sleep=lambda _s: None
        )
        with pytest.raises(RMIError, match="gave up"):
            port.all_complete()

    def test_validation(self):
        with pytest.raises(ValueError):
            ReconnectingPort("h", 1, max_attempts=0)


class TestStatusReport:
    def test_snapshot_and_render(self):
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(25), lease_timeout=100.0)
        pid = server.submit(
            Problem("sum-job", RangeSumDataManager(100), RangeSumAlgorithm()),
            clock(),
        )
        server.register_donor("lab-pc-01", clock())
        a = server.request_work("lab-pc-01", clock.advance(1.0))
        from repro.core.workunit import WorkResult

        server.submit_result(
            WorkResult(pid, a.unit_id, sum(range(*a.payload)), "lab-pc-01", 2.0, a.items),
            clock.advance(2.0),
        )
        b = server.request_work("lab-pc-01", clock.advance(1.0))  # in flight
        status = snapshot(server, clock())
        assert status.running_problems == 1
        assert status.active_donors == 1
        line = status.problems[0]
        assert line.units_completed == 1
        assert line.units_in_flight == 1
        assert 0 < line.progress < 1

        text = render_status(server, clock())
        assert "sum-job" in text
        assert "lab-pc-01" in text
        assert "running" in text

    def test_completed_problem_shows_full_progress(self):
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(100), lease_timeout=100.0)
        pid = server.submit(
            Problem("done", RangeSumDataManager(10), RangeSumAlgorithm()), clock()
        )
        server.register_donor("d0", clock())
        a = server.request_work("d0", clock.advance(1.0))
        from repro.core.workunit import WorkResult

        server.submit_result(
            WorkResult(pid, a.unit_id, sum(range(*a.payload)), "d0", 1.0, a.items),
            clock.advance(1.0),
        )
        status = snapshot(server, clock())
        assert status.problems[0].status == "complete"
        assert status.problems[0].progress == 1.0
        assert status.active_donors == 0

    def test_facade_status_report(self):
        server = TaskFarmServer(policy=FixedGranularity(5))
        facade = ServerFacade(server)
        facade.submit(Problem("j", RangeSumDataManager(10), RangeSumAlgorithm()))
        text = facade.status_report()
        assert "task farm status" in text
