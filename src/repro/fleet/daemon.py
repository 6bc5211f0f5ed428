"""The shard-daemon handle: one supervised ``repro serve`` subprocess.

A :class:`ShardDaemon` is the third in-tree
:class:`~repro.shard.lifecycle.ShardLifecycle` implementation (after the
in-process :class:`~repro.shard.lifecycle.MemberLane` and the
multiprocess :class:`~repro.shard.lifecycle.WorkerPool`): ``launch``
spawns a full :class:`~repro.service.service.FilterService` as a child
process listening on a unix *feed* socket (binary columnar frames,
:mod:`repro.net.stream`) and a unix *control* socket (JSON lines,
:mod:`repro.service.control`), with its own snapshot directory.

The handle owns the feed connection (a stateful
:class:`~repro.net.stream.FrameWriter`, so frames carry pool deltas) and
talks to the daemon through short-lived
:class:`~repro.service.control.ControlClient` connections.  Restart
semantics are exact: :meth:`relaunch` respawns the process — warm from
the latest snapshot when one exists — and the supervisor resends the
shard's entire retained frame stream; the restored service's
``source.skip(chunks_done)`` discards the already-processed prefix
(decoding it first, so the receiver's interned pool stays in lockstep
with the resent delta frames), and processing resumes frame-exact.

Boot is event-driven: :meth:`ShardDaemon.start` hands the child the
write end of a pipe (``repro serve --ready-fd``), and
:func:`await_ready` waits on the read ends of any number of started
daemons at once.  The child writes one line when its feed and
control sockets accept; EOF without that line means it died, and
silence past ``boot_timeout`` gets it killed — either way the caller
gets a :class:`FleetError` carrying the child's log tail.
"""

from __future__ import annotations

import os
import selectors
import socket as socket_module
import subprocess
import sys
import time
from typing import IO, List, Optional

from repro.net.stream import FrameWriter
from repro.net.table import PacketTable
from repro.service.control import ControlClient, ControlError
from repro.service.state import latest_snapshot
from repro.shard.lifecycle import ShardLifecycle


class FleetError(RuntimeError):
    """A shard daemon failed to boot, respond, or recover."""


def log_tail(path: str, lines: int = 12) -> str:
    """The last ``lines`` lines of a daemon log, for error messages."""
    try:
        with open(path, "r", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return "<no log>"


class ShardDaemon(ShardLifecycle):
    """Lifecycle handle for one shard's filter-service subprocess."""

    #: How long a boot may take from spawn to the child's ready line.
    BOOT_TIMEOUT = 20.0

    def __init__(
        self,
        lane: int,
        label: str,
        workdir: str,
        serve_args: List[str],
        boot_timeout: float = BOOT_TIMEOUT,
    ) -> None:
        self.lane = lane
        self.label = label
        self.workdir = workdir
        self.serve_args = list(serve_args)
        self.boot_timeout = boot_timeout
        self.feed_path = os.path.join(workdir, f"shard-{lane}.feed.sock")
        self.control_path = os.path.join(workdir, f"shard-{lane}.ctl.sock")
        self.snapshot_dir = os.path.join(workdir, f"shard-{lane}.snapshots")
        self.log_path = os.path.join(workdir, f"shard-{lane}.log")
        self.process: Optional[subprocess.Popen] = None
        self.frames_sent = 0
        self.restarts = 0
        #: Seconds from the last spawn to its ready line (``None`` until
        #: the first boot completes).
        self.boot_s: Optional[float] = None
        self._ready_fd: Optional[int] = None
        self._spawned_at = 0.0
        self._log: Optional[IO[bytes]] = None
        self._feed_socket: Optional[socket_module.socket] = None
        self._feed_stream = None
        self._writer: Optional[FrameWriter] = None

    # -- addresses ------------------------------------------------------

    @property
    def control_address(self) -> str:
        return f"unix:{self.control_path}"

    @property
    def feed_address(self) -> str:
        return f"unix:{self.feed_path}"

    @property
    def _boot_deadline(self) -> float:
        return self._spawned_at + self.boot_timeout

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def has_snapshot(self) -> bool:
        return (os.path.isdir(self.snapshot_dir)
                and latest_snapshot(self.snapshot_dir) is not None)

    def client(self, timeout: Optional[float] = 30.0) -> ControlClient:
        """A fresh control connection to this daemon."""
        return ControlClient(self.control_address, timeout)

    # -- lifecycle ------------------------------------------------------

    def launch(self) -> None:
        if self.alive:
            return
        self.start()
        await_ready([self])

    def relaunch(self, restore: bool) -> None:
        """Respawn the daemon (warm from its latest snapshot when
        ``restore``); the caller resends the retained frame stream."""
        self._close_feed()
        self._reap()
        self.restarts += 1
        self.start(restore=restore)
        await_ready([self])

    def restart(self) -> None:
        """Crash recovery: respawn warm when a snapshot exists, cold
        otherwise (either way the supervisor's full resend is exact)."""
        self.relaunch(restore=self.has_snapshot())

    def start(self, restore: bool = False) -> None:
        """Spawn the child and return at once; :func:`await_ready`
        completes the boot.  The child inherits the write end of a
        readiness pipe (``--ready-fd``) and writes one line to it once
        its feed and control sockets accept."""
        os.makedirs(self.snapshot_dir, exist_ok=True)
        read_fd, write_fd = os.pipe()
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--source", "socket",
            "--feed", self.feed_address,
            "--control", self.control_address,
            "--snapshot-dir", self.snapshot_dir,
            "--ready-fd", str(write_fd),
        ]
        if restore:
            argv += ["--restore", self.snapshot_dir]
        else:
            argv += self.serve_args
        self._log = open(self.log_path, "ab")
        self._spawned_at = time.monotonic()
        try:
            self.process = subprocess.Popen(
                argv, stdout=self._log, stderr=subprocess.STDOUT,
                env={**os.environ, "PYTHONUNBUFFERED": "1"},
                pass_fds=(write_fd,),
            )
        except BaseException:
            os.close(read_fd)
            raise
        finally:
            os.close(write_fd)
        self._ready_fd = read_fd

    def _finish_boot(self) -> None:
        """The readiness pipe is readable: a line means ready (connect
        the feed); EOF without one means the child died during boot."""
        fd, self._ready_fd = self._ready_fd, None
        try:
            line = os.read(fd, 64)
        finally:
            os.close(fd)
        if not line:
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
            returncode = self.process.poll()
            self._reap()
            raise FleetError(
                f"shard {self.label} exited during boot (rc={returncode}):\n"
                f"{log_tail(self.log_path)}"
            )
        self.boot_s = time.monotonic() - self._spawned_at
        self._connect_feed()
        self.frames_sent = 0

    def _boot_timed_out(self) -> None:
        self._reap()
        raise FleetError(
            f"shard {self.label} not ready within {self.boot_timeout:g}s "
            f"(killed):\n{log_tail(self.log_path)}"
        )

    def _connect_feed(self) -> None:
        sock = socket_module.socket(socket_module.AF_UNIX)
        try:
            sock.connect(self.feed_path)
        except OSError:
            sock.close()
            raise
        self._feed_socket = sock
        self._feed_stream = sock.makefile("wb")
        self._writer = FrameWriter(self._feed_stream)

    def send(self, chunk: PacketTable) -> None:
        """Write one lane chunk as a binary frame (pool-delta encoded)."""
        if self._writer is None:
            raise FleetError(f"shard {self.label} has no feed connection")
        self._writer.send(chunk)
        self.frames_sent += 1

    def ping(self) -> dict:
        """Process liveness plus the daemon's own health view."""
        report = {
            "lane": self.lane,
            "label": self.label,
            "pid": self.process.pid if self.process else None,
            "restarts": self.restarts,
            "boot_s": self.boot_s,
            "frames_sent": self.frames_sent,
        }
        if not self.alive:
            report["status"] = "down"
            report["returncode"] = (
                self.process.returncode if self.process else None
            )
            return report
        try:
            with self.client(timeout=5.0) as client:
                health = client.health()
        except (ControlError, OSError) as error:
            report["status"] = "unreachable"
            report["error"] = str(error)
            return report
        report["status"] = health.get("status", "unknown")
        report["chunks_done"] = health.get("chunks_done", 0)
        report["queue_depth"] = health.get("queue_depth", 0)
        return report

    def abort(self) -> None:
        """Kill and reap the child at once, without the feed EOF and grace
        period of :meth:`stop` — for a boot that failed, where a lane may
        not even hold a feed connection to close."""
        self._close_feed()
        self._reap()

    def kill(self) -> None:
        """Hard-kill the child (crash injection; tests and chaos drills)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def stop(self) -> None:
        """Graceful teardown: close the feed (EOF finalizes the service)
        and reap; escalate to shutdown-then-kill if the child lingers."""
        self._close_feed()
        if self.process is not None and self.process.poll() is None:
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                try:
                    with self.client(timeout=5.0) as client:
                        client.shutdown()
                except (ControlError, OSError):
                    pass
                try:
                    self.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        self._reap()

    def wait(self, timeout: Optional[float] = None) -> int:
        if self.process is None:
            return 0
        return self.process.wait(timeout=timeout)

    # -- internals ------------------------------------------------------

    def _close_feed(self) -> None:
        for closer in (self._feed_stream, self._feed_socket):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._feed_stream = None
        self._feed_socket = None
        self._writer = None

    def _reap(self) -> None:
        if self._ready_fd is not None:
            os.close(self._ready_fd)
            self._ready_fd = None
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


def await_ready(daemons: List[ShardDaemon]) -> None:
    """Complete the boot of every :meth:`~ShardDaemon.start`-ed daemon,
    waiting on all of their readiness pipes at once.

    A ready line connects that daemon's feed.  EOF without a line (the
    child died) and silence past a daemon's ``boot_timeout`` (the child
    is killed and reaped) raise :class:`FleetError` for that daemon at
    once; the others are left to the caller to abort."""
    with selectors.DefaultSelector() as selector:
        for daemon in daemons:
            selector.register(daemon._ready_fd, selectors.EVENT_READ, daemon)
        while selector.get_map():
            pending = [key.data for key in selector.get_map().values()]
            first = min(pending, key=lambda daemon: daemon._boot_deadline)
            ready = selector.select(
                max(0.0, first._boot_deadline - time.monotonic())
            )
            if not ready:
                selector.unregister(first._ready_fd)
                first._boot_timed_out()
            for key, _ in ready:
                selector.unregister(key.fd)
                key.data._finish_boot()
