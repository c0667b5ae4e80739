"""Start, observe and tear down the live farm: ``repro-server`` and
``repro-donor`` subprocesses on an ephemeral port, with a journal
directory per repetition.

Everything here looks at the program from outside: its CLIs, its RMI
facade, and ``/proc/<pid>``.  Teardown is guaranteed — every child is
started with a parent-death signal, tracked in a module registry that
``atexit`` and the context managers sweep, and the per-run work
directory is removed on the way out, also after a failed or
interrupted run.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

#: Poll period while waiting on the server's job states.  The timing
#: metrics come from the server's own timestamps, so this only bounds
#: how late the harness *notices*, not what it reports.
POLL_SECONDS = 0.02

TENANT = "bench"
DONOR_IDLE_SLEEP = 0.01

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LIVE: set["Child"] = set()
_WORKDIRS: set[Path] = set()


def child_env() -> dict[str, str]:
    """One compute thread per process, fixed hashing, and the program +
    the benchmark's problems importable."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _die_with_parent() -> None:
    """Runs in the child between fork and exec."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Child:
    """One subprocess with its output in a log file."""

    def __init__(self, argv: list[str], log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(REPO),
            preexec_fn=_die_with_parent,
        )
        self.pid = self.proc.pid
        _LIVE.add(self)

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait(self, timeout: float) -> int | None:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def stop(self, grace: float = 3.0) -> None:
        """SIGTERM, then SIGKILL after *grace* (at once when it is 0);
        always reaps."""
        if self.proc.poll() is None:
            if grace > 0:
                self.proc.terminate()
            if grace <= 0 or self.wait(grace) is None:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        _LIVE.discard(self)


def _sweep() -> None:
    for child in list(_LIVE):
        child.stop(grace=0.5)
    for path in list(_WORKDIRS):
        shutil.rmtree(path, ignore_errors=True)
        _WORKDIRS.discard(path)


atexit.register(_sweep)


def install_signal_handlers() -> None:
    """Turn SIGTERM/SIGINT into SystemExit so ``finally`` blocks and
    the ``atexit`` sweep run (no orphans after an interrupted run)."""

    def bail(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, bail)
    signal.signal(signal.SIGINT, bail)


def make_workdir() -> Path:
    """A fresh directory under the benchmark's own tree — the same
    filesystem on every run, inside the checkout."""
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    path = root / f"run-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    _WORKDIRS.add(path)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    _WORKDIRS.discard(path)
    try:
        path.parent.rmdir()  # drop .work itself once empty
    except OSError:
        pass


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(
            mount
        ) >= len(best):
            best, kind = mount, parts[2]
    return kind


# ---------------------------------------------------------------------------
# /proc sampling
# ---------------------------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime + reaped children's, from ``/proc/<pid>/stat``.
    Still readable while the process is an unreaped zombie."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    # fields[0] is the state (3rd field); utime..cstime are 14..17.
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLK_TCK


def proc_status_mb(pid: int, key: str) -> float:
    """``VmHWM`` / ``VmRSS`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024.0
    raise KeyError(f"{key} not in /proc/{pid}/status")


# ---------------------------------------------------------------------------
# the server and its donors
# ---------------------------------------------------------------------------


class ServerProcess:
    """``repro-server --journal DIR --tenants FILE`` on an ephemeral port."""

    def __init__(self, workdir: Path, unit_target_seconds: float | None = None):
        self.journal_dir = workdir / "journal"
        tenants = workdir / "tenants.conf"
        tenants.write_text(
            f"tenant.{TENANT}.weight = 1\n"
            f"tenant.{TENANT}.max_running = 1\n"
            f"tenant.{TENANT}.max_pending = 4\n"
        )
        argv = [
            sys.executable, "-m", "repro.cli.farm",
            "--host", "127.0.0.1", "--port", "0",
            "--journal", str(self.journal_dir),
            "--tenants", str(tenants),
        ]
        if unit_target_seconds is not None:
            argv += ["--unit-target-seconds", str(unit_target_seconds)]
        self.child = Child(argv, workdir / "server.log")
        self.pid = self.child.pid
        self.port: int | None = None

    def wait_ready(self, timeout: float = 30.0):
        """Block until the server prints its port; returns an RMI proxy."""
        from repro.rmi import connect

        deadline = time.monotonic() + timeout
        marker = "task-farm server listening on "
        while time.monotonic() < deadline:
            if self.child.proc.poll() is not None:
                raise RuntimeError(
                    f"repro-server exited early:\n{self.child.log_tail()}"
                )
            for line in self.child.log_path.read_text(errors="replace").splitlines():
                if line.startswith(marker):
                    self.port = int(line.rsplit(":", 1)[1])
                    return connect("127.0.0.1", self.port, "taskfarm")
            time.sleep(0.005)
        raise TimeoutError(f"repro-server not ready:\n{self.child.log_tail()}")

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_status_mb(self.pid, "VmHWM")

    def rss_mb(self) -> float:
        return proc_status_mb(self.pid, "VmRSS")

    def stop(self) -> None:
        # SIGKILL: the server takes 0.9 s to wind down on SIGTERM, nine
        # times per invocation, and nothing of that is needed — every
        # journal record was fsynced before its call was acknowledged.
        self.child.stop(grace=0)


def spawn_donor(
    workdir: Path, port: int, name: str, traced_workload: str | None = None
) -> Child:
    """One ``repro-donor`` process; a traced one runs the same
    ``DonorClient`` from ``traced_donor.py`` with timing wrappers."""
    address = f"127.0.0.1:{port}"
    common = [address, "--name", name, "--idle-sleep", str(DONOR_IDLE_SLEEP)]
    if traced_workload is None:
        argv = [
            sys.executable, "-c",
            "import sys; from repro.cli.farm import donor_main; "
            "sys.exit(donor_main(sys.argv[1:]))",
            *common,
        ]
    else:
        argv = [
            sys.executable, str(HERE / "traced_donor.py"), *common,
            "--workload", traced_workload,
            "--spans", str(workdir / f"spans-{name}.pickle"),
        ]
    return Child(argv, workdir / f"{name}.log")


def submit_job(proxy, problem) -> int:
    reply = proxy.submit_job(TENANT, problem)
    if not reply.get("accepted"):
        raise RuntimeError(f"submit_job refused: {reply}")
    return reply["job_id"]


def wait_job(
    proxy, job_id: int, states: tuple[str, ...], timeout: float, watch=()
) -> dict:
    """Poll ``job_status`` until the job is in one of *states*; fails
    fast when one of the *watch* children (the donors) has died."""
    deadline = time.monotonic() + timeout
    while True:
        status = proxy.job_status(job_id)
        if status.get("status") in states:
            return status
        if status.get("status") in ("failed", "cancelled") or "error" in status:
            raise RuntimeError(f"job {job_id} ended badly: {status}")
        for child in watch:
            if child.proc.poll() not in (None, 0):
                raise RuntimeError(
                    f"{child.log_path.stem} exited {child.proc.returncode}:\n"
                    f"{child.log_tail()}"
                )
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {status.get('status')}")
        time.sleep(POLL_SECONDS)
