"""Tests for the shard daemons' readiness handshake.

``repro serve --ready-fd N`` writes one line to an inherited pipe once
its feed and control sockets accept; the supervisor waits on that pipe
instead of polling the control socket.  These tests pin the three
outcomes the supervisor acts on (a line, EOF, silence) and the claim
behind the line: the first control request after it succeeds.
"""

import os
import select
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.fleet import FleetError, FleetSupervisor, ShardDaemon, ShardFilterSpec
from repro.fleet.daemon import await_ready
from repro.service import ControlClient
from repro.shard.plan import HashShardPlan

SMALL = ShardFilterSpec(size_bits=12, vectors=3, hashes=2)


def test_failed_lane_aborts_the_whole_launch(tmp_path):
    """A non-socket file at lane 1's feed path, which the daemon refuses
    to unlink: the launch fails fast with that lane's log tail, and no
    child is left alive — the healthy lane included."""
    (tmp_path / "shard-1.feed.sock").write_text("not a socket")
    supervisor = FleetSupervisor(HashShardPlan(2, seed=3), str(tmp_path),
                                 spec=SMALL)
    began = time.monotonic()
    with pytest.raises(FleetError, match="refusing to unlink"):
        supervisor.launch()
    # About one daemon boot: 0.5-1.1 s on a 2-vCPU host that compiles
    # the modules on every start (PYTHONDONTWRITEBYTECODE), where the
    # lane-by-lane polled boot took 1.8-1.9 s.
    assert time.monotonic() - began < 1.5
    for daemon in supervisor.daemons:
        assert daemon.process is not None
        assert daemon.process.poll() is not None


def test_silent_child_is_killed_at_boot_timeout(tmp_path):
    daemon = ShardDaemon(0, "stopped", str(tmp_path), SMALL.serve_args(),
                         boot_timeout=1.0)
    daemon.start()
    os.kill(daemon.process.pid, signal.SIGSTOP)
    began = time.monotonic()
    try:
        with pytest.raises(FleetError, match="not ready within 1s"):
            await_ready([daemon])
    finally:
        daemon.abort()
    assert 0.9 <= time.monotonic() - began < 10.0
    assert daemon.process.returncode == -signal.SIGKILL


def test_control_answers_first_try_after_ready_line(tmp_path):
    feed = str(tmp_path / "feed.sock")
    control = f"unix:{tmp_path / 'ctl.sock'}"
    read_fd, write_fd = os.pipe()
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--source", "socket",
         "--feed", f"unix:{feed}", "--control", control,
         "--ready-fd", str(write_fd), *SMALL.serve_args()],
        pass_fds=(write_fd,),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    os.close(write_fd)
    try:
        readable, _, _ = select.select([read_fd], [], [], 30.0)
        assert readable, "no ready line within 30s"
        assert os.read(read_fd, 64) == b"ready\n"
        assert os.read(read_fd, 64) == b""  # one line, then closed
        with ControlClient(control, timeout=5.0, connect_retry=None) as client:
            assert client.health()["status"] == "running"
        # The feed listener is bound too; closing the feed finalizes.
        with socket.socket(socket.AF_UNIX) as feeder:
            feeder.connect(feed)
        assert child.wait(timeout=30.0) == 0
    finally:
        os.close(read_fd)
        if child.poll() is None:
            child.kill()
            child.wait()
