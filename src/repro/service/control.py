"""Control/telemetry plane: JSON lines over a unix or TCP socket.

Protocol: one request per line, one response per line, both JSON
objects.  Requests carry ``{"cmd": <name>, ...params}``; responses are
``{"ok": true, ...payload}`` or ``{"ok": false, "error": <message>}``.

Commands:

``stats``     full telemetry document (:func:`~repro.service.telemetry.service_stats`)
``health``    cheap liveness view
``config``    live reconfiguration: ``low_mbps``/``high_mbps`` (RED
              thresholds), ``probability`` (static policy),
              ``rotate_interval`` (Δt, phase re-anchored on the trace clock)
``snapshot``  persist full service state; returns the file path
``drain``     stop ingesting, process the queue, finalize; returns the
              final summary (the response waits for completion)
``shutdown``  like drain but discards queued chunks
``flush``     ``{"chunks": n}``: answer once ``chunks_done >= n`` (at
              once when it already is); fails if the service finishes
              short of ``n``

Addresses are ``unix:/path/to.sock`` or ``tcp:host:port`` —
:func:`parse_control_address` is shared by server, client and CLI.
"""

from __future__ import annotations

import asyncio
import json
import socket as socket_module
import time
from typing import Any, Optional, Tuple

from repro.service.service import FilterService, ServiceError
from repro.service.telemetry import service_health, service_stats


def parse_control_address(spec: str) -> Tuple[str, Any]:
    """``unix:/path`` → ``("unix", path)``; ``tcp:host:port`` →
    ``("tcp", (host, port))``."""
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError(f"empty unix socket path: {spec!r}")
        return "unix", path
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"tcp control address must be tcp:host:port: {spec!r}"
            )
        return "tcp", (host, int(port))
    raise ValueError(
        f"control address must start with unix: or tcp:, got {spec!r}"
    )


async def handle_command(service: FilterService, request: dict) -> dict:
    """Dispatch one decoded request; returns the response payload."""
    command = request.get("cmd")
    if command == "stats":
        return {"ok": True, "stats": service_stats(service)}
    if command == "health":
        return {"ok": True, "health": service_health(service)}
    if command == "config":
        params = {
            key: value for key, value in request.items() if key != "cmd"
        }
        applied = await service.reconfigure(**params)
        return {"ok": True, "applied": applied}
    if command == "snapshot":
        path = await service.request_snapshot()
        return {"ok": True, "path": path}
    if command == "drain":
        summary = await service.drain()
        return {"ok": True, "summary": summary}
    if command == "shutdown":
        summary = await service.shutdown()
        return {"ok": True, "summary": summary}
    if command == "flush":
        chunks = request.get("chunks")
        if isinstance(chunks, bool) or not isinstance(chunks, int) or chunks < 0:
            raise ValueError(f"flush needs a chunk count >= 0: {chunks!r}")
        return {"ok": True,
                "chunks_done": await service.wait_for_chunks(chunks)}
    return {"ok": False, "error": f"unknown command: {command!r}"}


async def _serve_connection(
    service: FilterService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            request: dict = {}
            try:
                decoded = json.loads(line)
                if not isinstance(decoded, dict):
                    raise ValueError("request must be a JSON object")
                request = decoded
                response = await handle_command(service, request)
            except (ValueError, ServiceError) as error:
                response = {"ok": False, "error": str(error)}
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
            if request.get("cmd") in ("drain", "shutdown") and response.get("ok"):
                return
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    except asyncio.CancelledError:
        # Service shutdown with the connection still open: close it
        # quietly instead of surfacing a cancelled handler task.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ControlServer:
    """The listening server plus its live connection tasks, so shutdown
    can close idle client connections instead of leaking them into the
    event loop's teardown."""

    def __init__(self, server: asyncio.AbstractServer, connections: set) -> None:
        self._server = server
        self._connections = connections

    def close(self) -> None:
        self._server.close()

    async def wait_closed(self) -> None:
        """Stop accepting, let in-flight responses flush, then cancel.

        A drain/shutdown handler may have just had its future resolved
        and not yet written the response; cancelling immediately would
        eat the reply the client is waiting on.  Handlers that finish a
        terminal command return on their own; only idle connections
        (clients sitting in ``readline``) hit the cancel.
        """
        await self._server.wait_closed()
        tasks = [task for task in self._connections if not task.done()]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            for task in pending:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass


async def start_control_server(service: FilterService, spec: str) -> ControlServer:
    """Start the asyncio control server for ``spec``; returns the server
    (close + ``wait_closed`` to stop)."""
    kind, address = parse_control_address(spec)
    connections: set = set()

    async def handler(reader, writer):
        task = asyncio.current_task()
        connections.add(task)
        task.add_done_callback(connections.discard)
        await _serve_connection(service, reader, writer)

    if kind == "unix":
        server = await asyncio.start_unix_server(handler, path=address)
    else:
        host, port = address
        server = await asyncio.start_server(handler, host=host, port=port)
    return ControlServer(server, connections)


class ControlError(RuntimeError):
    """The control server rejected a request or closed unexpectedly."""


#: Sentinel for "no per-request override": ``None`` must stay usable as
#: an explicit "block forever".
_DEFAULT_TIMEOUT = object()


class ControlClient:
    """Synchronous control-socket client (``repro ctl``, tests, scripts).

    ``timeout`` bounds each request/response round trip; a per-request
    override (``request(..., timeout=...)``) serves calls with known
    longer deadlines — a ``drain`` flushing a deep queue — without
    loosening every other call.

    ``connect_retry`` is the connect patience budget in seconds: while it
    lasts, refused or not-yet-bound sockets are retried with bounded
    exponential backoff (50ms doubling to 1s), so a client started beside
    a daemon that is still booting does not race the socket bind.  The
    default (``None``) keeps the historical single-attempt behavior and
    raises the OS error as-is.
    """

    #: First retry sleep; doubles per attempt up to the cap below.
    RETRY_INITIAL = 0.05
    RETRY_MAX = 1.0

    def __init__(
        self,
        spec: str,
        timeout: Optional[float] = 30.0,
        *,
        connect_retry: Optional[float] = None,
    ) -> None:
        kind, address = parse_control_address(spec)
        self._timeout = timeout
        deadline = (
            None if connect_retry is None
            else time.monotonic() + connect_retry
        )
        delay = self.RETRY_INITIAL
        while True:
            try:
                self._socket = self._connect(kind, address, timeout)
                break
            except (ConnectionError, FileNotFoundError, OSError) as error:
                if deadline is None:
                    raise
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ControlError(
                        f"control socket {spec} not reachable after "
                        f"{connect_retry:.1f}s: {error}"
                    ) from error
                time.sleep(min(delay, remaining))
                delay = min(delay * 2, self.RETRY_MAX)
        self._stream = self._socket.makefile("rwb")

    @staticmethod
    def _connect(kind: str, address, timeout: Optional[float]):
        if kind == "unix":
            sock = socket_module.socket(socket_module.AF_UNIX)
            sock.settimeout(timeout)
            try:
                sock.connect(address)
            except BaseException:
                sock.close()
                raise
            return sock
        return socket_module.create_connection(address, timeout=timeout)

    def request(
        self, cmd: str, timeout: Any = _DEFAULT_TIMEOUT, **params: Any
    ) -> dict:
        """Send one command, wait for its response; raises
        :class:`ControlError` on a ``{"ok": false}`` reply.  ``timeout``
        overrides the client default for this round trip only (``None``
        = wait indefinitely)."""
        message = {"cmd": cmd, **params}
        override = timeout is not _DEFAULT_TIMEOUT
        if override:
            self._socket.settimeout(timeout)
        try:
            self._stream.write(json.dumps(message).encode("utf-8") + b"\n")
            self._stream.flush()
            line = self._stream.readline()
        finally:
            if override:
                self._socket.settimeout(self._timeout)
        if not line:
            raise ControlError(f"control server closed during {cmd!r}")
        response = json.loads(line)
        if not response.get("ok"):
            raise ControlError(response.get("error", "unknown control error"))
        return response

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def health(self) -> dict:
        return self.request("health")["health"]

    def configure(self, **params: Any) -> dict:
        return self.request("config", **params)["applied"]

    def snapshot(self) -> str:
        return self.request("snapshot")["path"]

    def drain(self, timeout: Any = _DEFAULT_TIMEOUT) -> dict:
        return self.request("drain", timeout=timeout)["summary"]

    def shutdown(self, timeout: Any = _DEFAULT_TIMEOUT) -> dict:
        return self.request("shutdown", timeout=timeout)["summary"]

    def flush(self, chunks: int, timeout: Any = _DEFAULT_TIMEOUT) -> int:
        """Block until the service has processed ``chunks`` chunks;
        returns its ``chunks_done``.  Running out of ``timeout`` raises
        :class:`ControlError`."""
        try:
            return self.request("flush", timeout=timeout,
                                chunks=chunks)["chunks_done"]
        except socket_module.timeout as error:
            raise ControlError(
                f"flush to {chunks} chunks timed out: {error}"
            ) from error

    def close(self) -> None:
        self._stream.close()
        self._socket.close()

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
