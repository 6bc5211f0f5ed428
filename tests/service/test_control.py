"""Tests for the control/telemetry socket plane (repro.service.control)."""

import json
import socket
import threading
import time

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.net.stream import FrameWriter
from repro.service import ControlClient, ControlError, FilterService
from repro.service.control import parse_control_address
from repro.service.sources import GeneratorSource, IdleSource, SocketSource
from repro.workload import TraceConfig, TraceGenerator


def make_filter():
    return BitmapPacketFilter(
        BitmapFilterConfig(
            size=2 ** 12, vectors=3, hashes=2, rotate_interval=5.0
        ),
        drop_controller=DropController.red_mbps(0.1, 1.0),
    )


def generator_source():
    generator = TraceGenerator(
        TraceConfig(duration=20.0, connection_rate=6.0, seed=5)
    )
    return GeneratorSource(generator, chunk_size=512)


def run_in_thread(service):
    box = {}

    def runner():
        try:
            box["result"] = service.run_forever()
        except BaseException as error:  # noqa: BLE001 - surfaced by caller
            box["error"] = error

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    return thread, box


def wait_for_socket(path, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            probe = socket.socket(socket.AF_UNIX)
            probe.connect(path)
            probe.close()
            return
        except OSError:
            time.sleep(0.01)
    raise TimeoutError(f"control socket never accepted: {path}")


def free_tcp_port():
    probe = socket.socket(socket.AF_INET)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestParseAddress:
    def test_unix(self):
        assert parse_control_address("unix:/tmp/x.sock") == (
            "unix", "/tmp/x.sock"
        )

    def test_tcp(self):
        assert parse_control_address("tcp:127.0.0.1:9000") == (
            "tcp", ("127.0.0.1", 9000)
        )

    def test_rejects_empty_unix_path(self):
        with pytest.raises(ValueError):
            parse_control_address("unix:")

    def test_rejects_bad_tcp(self):
        with pytest.raises(ValueError):
            parse_control_address("tcp:9000")
        with pytest.raises(ValueError):
            parse_control_address("tcp:host:notaport")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            parse_control_address("http:whatever")


class TestControlSocket:
    def running_service(self, tmp_path, **kwargs):
        sock = str(tmp_path / "ctl.sock")
        service = FilterService(
            IdleSource(poll_interval=0.01),
            make_filter(),
            control=f"unix:{sock}",
            **kwargs,
        )
        thread, box = run_in_thread(service)
        wait_for_socket(sock)
        return sock, thread, box

    def test_stats_and_health(self, tmp_path):
        sock, thread, _ = self.running_service(tmp_path)
        with ControlClient(f"unix:{sock}") as client:
            health = client.health()
            assert health["status"] == "running"
            assert health["queue_limit"] == 8
            stats = client.stats()
            assert stats["source"] == "idle"
            assert stats["backend"].startswith("batched")
            assert stats["packets"] == 0
            assert stats["blocklist"]["entries"] == 0
            assert stats["rotation"] == {"interval": 5.0, "expiry": 15.0}
            assert stats["drop_policy"]["kind"] == "red"
            client.shutdown()
        thread.join(timeout=5.0)

    def test_unknown_command(self, tmp_path):
        sock, thread, _ = self.running_service(tmp_path)
        with ControlClient(f"unix:{sock}") as client:
            with pytest.raises(ControlError, match="unknown command"):
                client.request("frobnicate")
            client.shutdown()
        thread.join(timeout=5.0)

    def test_malformed_request_keeps_connection_alive(self, tmp_path):
        sock, thread, _ = self.running_service(tmp_path)
        raw = socket.socket(socket.AF_UNIX)
        raw.connect(sock)
        stream = raw.makefile("rwb")
        stream.write(b"this is not json\n")
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"] is False
        # The same connection still serves well-formed requests.
        stream.write(json.dumps({"cmd": "health"}).encode() + b"\n")
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"] is True
        stream.close()
        raw.close()
        with ControlClient(f"unix:{sock}") as client:
            client.shutdown()
        thread.join(timeout=5.0)

    def test_config_error_propagates(self, tmp_path):
        sock, thread, _ = self.running_service(tmp_path)
        with ControlClient(f"unix:{sock}") as client:
            with pytest.raises(ControlError, match="unknown config keys"):
                client.configure(bogus=1)
            with pytest.raises(ControlError, match="no snapshot_dir"):
                client.snapshot()
            client.shutdown()
        thread.join(timeout=5.0)

    def test_snapshot_over_socket(self, tmp_path):
        sock, thread, _ = self.running_service(
            tmp_path, snapshot_dir=str(tmp_path)
        )
        with ControlClient(f"unix:{sock}") as client:
            path = client.snapshot()
            assert path.endswith("snapshot-00000001.json")
            client.shutdown()
        thread.join(timeout=5.0)

    def test_drain_returns_summary_and_stops(self, tmp_path):
        sock = str(tmp_path / "ctl.sock")
        service = FilterService(
            generator_source(),
            make_filter(),
            control=f"unix:{sock}",
            speed=40.0,
        )
        thread, box = run_in_thread(service)
        wait_for_socket(sock)
        with ControlClient(f"unix:{sock}") as client:
            summary = client.drain()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert "error" not in box
        assert summary["fingerprint"] == box["result"].fingerprint

    def test_tcp_control(self, tmp_path):
        port = free_tcp_port()
        service = FilterService(
            IdleSource(poll_interval=0.01),
            make_filter(),
            control=f"tcp:127.0.0.1:{port}",
        )
        thread, box = run_in_thread(service)
        deadline = time.monotonic() + 5.0
        client = None
        while client is None:
            try:
                client = ControlClient(f"tcp:127.0.0.1:{port}")
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        with client:
            assert client.health()["status"] == "running"
            client.shutdown()
        thread.join(timeout=5.0)
        assert "error" not in box


class TestFlushVerb:
    def test_flush_waits_for_frames(self, tmp_path):
        feed = str(tmp_path / "feed.sock")
        sock = str(tmp_path / "ctl.sock")
        address = f"unix:{sock}"
        service = FilterService(SocketSource.unix(feed), make_filter(),
                                control=address)
        thread, box = run_in_thread(service)
        wait_for_socket(sock)
        chunks = list(generator_source())[:2]
        feeder = socket.socket(socket.AF_UNIX)
        feeder.connect(feed)
        stream = feeder.makefile("wb")
        writer = FrameWriter(stream)
        try:
            with ControlClient(address) as client:
                assert client.flush(0) == 0  # already satisfied
                with pytest.raises(ControlError, match="timed out"):
                    client.flush(1, timeout=0.2)

            flushed = {}

            def flusher():
                with ControlClient(address) as client:
                    flushed["chunks_done"] = client.flush(2, timeout=10.0)

            waiter = threading.Thread(target=flusher, daemon=True)
            waiter.start()
            writer.send(chunks[0])
            waiter.join(timeout=0.3)
            assert waiter.is_alive()  # one frame of two: still blocked
            writer.send(chunks[1])
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            assert flushed["chunks_done"] == 2

            with ControlClient(address, timeout=1.0) as client:
                assert client.flush(2) == 2  # satisfied: answers at once
                with pytest.raises(ControlError, match="chunk count"):
                    client.request("flush", chunks=-1)
        finally:
            stream.close()
            feeder.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert "error" not in box
        assert box["result"].packets == sum(len(c) for c in chunks)
