"""Shared fixtures and packet-building helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP, parse_ipv4
from repro.net.packet import Direction, Packet, SocketPair

# Canonical test addresses: CLIENT inside the 10.1/16 client network,
# REMOTE outside it.
CLIENT_ADDR = parse_ipv4("10.1.0.5")
CLIENT_ADDR_2 = parse_ipv4("10.1.0.9")
REMOTE_ADDR = parse_ipv4("203.0.113.7")
REMOTE_ADDR_2 = parse_ipv4("198.51.100.23")


def tcp_pair(
    src=CLIENT_ADDR, sport=3333, dst=REMOTE_ADDR, dport=80
) -> SocketPair:
    return SocketPair(IPPROTO_TCP, src, sport, dst, dport)


def udp_pair(
    src=CLIENT_ADDR, sport=4444, dst=REMOTE_ADDR, dport=53
) -> SocketPair:
    return SocketPair(IPPROTO_UDP, src, sport, dst, dport)


def out_packet(pair=None, t=0.0, size=100, flags=0, payload=b"") -> Packet:
    """An outbound packet (client -> remote orientation)."""
    return Packet(
        t, pair or tcp_pair(), size=size, flags=flags, payload=payload,
        direction=Direction.OUTBOUND,
    )


def in_packet(pair=None, t=0.0, size=100, flags=0, payload=b"") -> Packet:
    """An inbound packet; ``pair`` is given in remote -> client orientation
    (i.e. already inverted)."""
    if pair is None:
        pair = tcp_pair().inverse
    return Packet(t, pair, size=size, flags=flags, payload=payload,
                  direction=Direction.INBOUND)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def small_trace():
    """A small deterministic synthetic trace shared by integration tests."""
    from repro.workload import TraceConfig, TraceGenerator

    generator = TraceGenerator(TraceConfig(duration=60.0, connection_rate=8.0, seed=42))
    return generator.packet_list()


@pytest.fixture(scope="session")
def small_trace_specs():
    from repro.workload import TraceConfig, TraceGenerator

    generator = TraceGenerator(TraceConfig(duration=60.0, connection_rate=8.0, seed=42))
    generator.packet_list()
    return generator.specs()


# ----------------------------------------------------------------------
# Child-process leak guard (used by the service and fleet suites)
# ----------------------------------------------------------------------


def _live_children() -> dict:
    """This process's live children as ``{pid: command line}``.

    Read from ``/proc/self/task/*/children`` (every thread's children);
    zombies — exited, only waiting to be reaped — are not live.  Empty
    where the kernel does not expose the files.
    """
    import glob

    children = {}
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids = [int(pid) for pid in handle.read().split()]
        except OSError:  # the thread exited meanwhile
            continue
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    argv = handle.read().split(b"\0")
            except OSError:  # already gone
                continue
            if state != "Z":
                children[pid] = " ".join(
                    arg.decode(errors="replace") for arg in argv if arg
                )
    return children


@pytest.fixture
def no_leaked_children():
    """Fail a test that leaves a child process running.

    Children alive after the test (and after every fixture it used has
    been torn down) that were not alive before are killed, reaped and
    reported with their pid and command line.  The multiprocessing
    resource tracker outlives tests by design and is ignored.
    """
    import os
    import signal

    before = set(_live_children())
    yield
    leaked = {
        pid: command for pid, command in _live_children().items()
        if pid not in before and "resource_tracker" not in command
    }
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if leaked:
        pytest.fail("test left child processes running: " + "; ".join(
            f"pid {pid}: {command}" for pid, command in sorted(leaked.items())
        ))
