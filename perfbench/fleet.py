"""One ``repro serve`` under the benchmark's control.

Boots the service as a subprocess in its own process group, reads the
fleet's pid manifest, samples CPU and peak RSS from ``/proc``, and
tears it down either cleanly (SIGTERM, with the leak checks) or by
crash (SIGKILL of the whole group).  Every file the service writes
lands in the run directory: the ready file, the journal and, through
``TMPDIR=.``, the worker fleet's socket directory.
"""

from __future__ import annotations

import glob
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SHM = "/dev/shm"


def _split_cpus() -> Tuple[set, set]:
    """(generator CPUs, service CPUs): one CPU for the generator, the
    rest for the service.  Unpinned, the scheduler's wake-affine habit
    sometimes stacks the two ping-ponging processes on one CPU, which
    halves throughput for a whole run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


GEN_CPUS, SERVE_CPUS = _split_cpus()


class BenchError(RuntimeError):
    """A check failed: the run is not measured."""


def shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM) if name.startswith("psm_")}
    except OSError:
        return set()


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def group_members(pgid: int) -> List[int]:
    """Live processes in process group ``pgid``."""
    members = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                fields = _stat_fields(int(name))
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(name))
    return members


def catches_sigterm(pid: int) -> bool:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("SigCgt:"):
                return bool(int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1)
    return False


class Serve:
    """``repro serve`` (one process or a worker fleet) in ``rundir``.

    ``spans_dir`` switches to the traced launcher, whose processes
    write their span totals there on SIGUSR1.
    """

    def __init__(
        self,
        root: str,
        rundir: str,
        flags: Sequence[str],
        *,
        workers: int = 1,
        spans_dir: Optional[str] = None,
    ) -> None:
        self.root = root
        self.rundir = rundir
        self.flags = list(flags)
        self.workers = workers
        self.spans_dir = spans_dir
        self.proc: Optional[subprocess.Popen] = None
        self.address = ("127.0.0.1", 0)
        self.worker_pids: Dict[int, int] = {}
        self._shm_before: set = set()
        self._log = None

    # -- lifecycle -----------------------------------------------------------

    def boot(self, timeout: float = 60.0) -> float:
        """Spawn and wait until the ready file (and manifest) appear;
        returns the seconds from spawn to ready."""
        ready = os.path.join(self.rundir, "ready")
        for path in (ready, ready + ".workers"):
            if os.path.exists(path):
                os.unlink(path)
        if self.spans_dir is None:
            head = [sys.executable, "-m", "repro"]
        else:
            head = [sys.executable, os.path.join(HERE, "traced_serve.py"), self.spans_dir]
        argv = head + ["serve", "--port", "0", "--ready-file", "ready"] + self.flags
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"), TMPDIR=".")
        self._shm_before = shm_segments()
        self._log = open(os.path.join(self.rundir, "serve.log"), "ab")
        # The service inherits its CPU set across fork: switch to it for
        # the spawn only (no pre-exec hook), then back to the generator's.
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, SERVE_CPUS)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=self.rundir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        os.sched_setaffinity(0, own)
        deadline = started + timeout
        manifest = ready + ".workers"
        while True:
            if os.path.exists(ready) and os.path.getsize(ready) > 0:
                elapsed = time.perf_counter() - started
                break
            if self.proc.poll() is not None:
                raise BenchError(f"serve exited {self.proc.returncode} at boot: {self.log_tail()}")
            if time.perf_counter() > deadline:
                raise BenchError(f"serve not ready after {timeout}s: {self.log_tail()}")
            time.sleep(0.001)
        with open(ready, encoding="ascii") as handle:
            host, port = handle.read().split()
        self.address = (host, int(port))
        self.worker_pids = {}
        if self.workers > 1:
            while len(self.worker_pids) < self.workers:
                if os.path.exists(manifest):
                    with open(manifest, encoding="ascii") as handle:
                        rows = [line.split() for line in handle if line.strip()]
                    self.worker_pids = {int(i): int(p) for i, p in rows}
                if time.perf_counter() > deadline:
                    raise BenchError("worker manifest never listed every worker")
                time.sleep(0.001)
        return elapsed

    def log_tail(self) -> str:
        try:
            with open(os.path.join(self.rundir, "serve.log"), "rb") as handle:
                return handle.read()[-600:].decode("utf-8", "replace")
        except OSError:
            return ""

    @property
    def pids(self) -> List[int]:
        """Every serve process: the main one plus the fleet's workers."""
        assert self.proc is not None
        return [self.proc.pid] + [self.worker_pids[i] for i in sorted(self.worker_pids)]

    @property
    def service_pids(self) -> List[int]:
        """The processes that host a service (workers, or the one process)."""
        return self.pids[1:] if self.worker_pids else self.pids

    def cpu_seconds(self) -> float:
        """CPU time of every serve process so far.  Each thread's
        ``schedstat`` counts it in nanoseconds; utime+stime in ``stat``
        counts 10 ms ticks, too coarse for one round's open loop."""
        total = 0
        for pid in self.pids:
            for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
                try:
                    with open(path, encoding="ascii") as handle:
                        total += int(handle.read().split()[0])
                except OSError:
                    continue
        return total / 1e9

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def dump_spans(self, timeout: float = 20.0) -> List[dict]:
        """Ask every service process for its span totals (traced run)."""
        import json

        assert self.spans_dir is not None
        paths = {pid: os.path.join(self.spans_dir, f"spans.{pid}.json") for pid in self.service_pids}
        for pid, path in paths.items():
            if os.path.exists(path):
                os.unlink(path)
            os.kill(pid, signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        dumps = []
        for pid, path in paths.items():
            while not os.path.exists(path):
                if time.perf_counter() > deadline:
                    raise BenchError(f"serve pid {pid} wrote no span dump")
                time.sleep(0.002)
            with open(path, encoding="utf-8") as handle:
                dumps.append(json.load(handle))
        return dumps

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, then the clean-teardown checks: exit status 0, no
        surviving fleet pid, no new shared-memory segment, no temp dir."""
        assert self.proc is not None
        pids = self.pids
        deadline = time.perf_counter() + timeout
        # A SIGTERM that lands before the service installs its handler
        # kills it outright; wait until the handler is in place.
        while not catches_sigterm(self.proc.pid):
            if time.perf_counter() > deadline:
                raise BenchError("serve never installed its SIGTERM handler")
            time.sleep(0.002)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("serve did not exit within 30s of SIGTERM") from None
        problems = []
        if code != 0:
            problems.append(f"exit status {code}")
        while (any(alive(pid) for pid in pids) or group_members(pids[0])) and time.perf_counter() < deadline:
            time.sleep(0.005)
        survivors = sorted({pid for pid in pids if alive(pid)} | set(group_members(pids[0])))
        if survivors:
            problems.append(f"surviving pids {survivors}")
        leaked = shm_segments() - self._shm_before
        if leaked:
            problems.append(f"shared-memory segments left: {sorted(leaked)}")
        temps = glob.glob(os.path.join(self.rundir, "repro-workers-*"))
        if temps:
            problems.append(f"temp dirs left: {temps}")
        self._close_log()
        self.proc = None
        if problems:
            self._reap(pids)
            raise BenchError("unclean teardown: " + "; ".join(problems))

    def terminate_at_ready(self, timeout: float = 30.0) -> int:
        """SIGTERM as soon as the ready file exists, without waiting for
        the SIGTERM handler; returns the exit status and clears up what
        the service leaves behind."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"serve did not exit within {timeout}s of a SIGTERM at ready") from None
        self.kill()
        return code

    def kill(self) -> None:
        """SIGKILL the whole process group (a crash), then clear what a
        crash leaves behind: the shm segment and the socket dir."""
        assert self.proc is not None
        pids = self.pids
        self._reap(pids)
        self.proc.wait()
        self._close_log()
        self.proc = None

    def _reap(self, pids: List[int]) -> None:
        """SIGKILL the group and any fleet pid outside it; wait until all
        are gone; remove the segment and socket dir they leave behind."""
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline:
            members = group_members(pids[0])
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if not members and not any(alive(pid) for pid in pids):
                break
            time.sleep(0.005)
        for name in shm_segments() - self._shm_before:
            try:
                os.unlink(os.path.join(SHM, name))
            except OSError:
                pass
        for path in glob.glob(os.path.join(self.rundir, "repro-workers-*")):
            shutil.rmtree(path, ignore_errors=True)

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def abort(self) -> None:
        """Best-effort cleanup after a failure."""
        if self.proc is not None:
            self.kill()
