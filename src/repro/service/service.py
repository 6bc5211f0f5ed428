"""The streaming filter daemon: wall-clock pacing, backpressure, warm restart.

:class:`FilterService` wraps any steppable
:class:`~repro.sim.pipeline.ExecutionBackend` around an open-ended
:class:`~repro.service.sources.PacketSource` and runs it as a
long-lived asyncio process:

* an **ingest task** pulls chunks from the (blocking) source in a worker
  thread and feeds a bounded queue — a slow filter backpressures ingest
  instead of buffering without bound;
* the **filter task** paces chunks against the wall clock (``speed`` is
  a trace-time multiplier; ``None`` replays flat out), feeds each chunk
  to the backend's :class:`~repro.sim.pipeline.ReplayStepper` in a
  worker thread, and applies control actions — reconfiguration,
  snapshots, drain/shutdown — only *between* chunks, so every action
  observes a consistent filter;
* an optional **snapshot task** persists the full service state
  (filter bits + RNG, blocklist, metrics, pipeline counters, verdict
  fingerprint) every ``snapshot_interval`` seconds;
* an optional **control server** (:mod:`repro.service.control`) serves
  stats/health and accepts the same actions over a unix or TCP socket;
* an optional **readiness pipe** (``ready_fd``) gets one line, then is
  closed, once the source is bound and the control server accepts — a
  supervisor waits on it instead of polling the control socket.

Warm restart is :meth:`FilterService.restore`: rebuild the filter from
the latest snapshot on the *same* clock (gap rotations still fire),
restore the router's measurement lanes and blocked-σ store, fast-forward
the source over the chunks already processed, and keep going — the
resumed run's verdicts, blocklist and fingerprint are identical to a run
that never stopped (``tests/service/test_service.py`` holds that
equivalence against an offline :func:`~repro.sim.replay.replay`).
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import time
from typing import Any, Optional, Tuple

from repro.core.dropper import RedDropPolicy, StaticDropPolicy
from repro.filters import restore_filter
from repro.filters.base import PacketFilter
from repro.net.table import PacketTable
from repro.shard.lifecycle import pipeline_counters, restore_pipeline
from repro.sim.pipeline import (
    BatchedBackend,
    ExecutionBackend,
    PipelineConfig,
    ReplayResult,
)
from repro.service.sources import PacketSource
from repro.service.state import (
    latest_snapshot,
    read_snapshot,
    snapshot_name,
    write_snapshot,
)


class ServiceError(RuntimeError):
    """A control action was invalid for the service's current state."""


class FilterService:
    """A long-running edge filter over an unbounded packet source."""

    def __init__(
        self,
        source: PacketSource,
        packet_filter: PacketFilter,
        backend: Optional[ExecutionBackend] = None,
        *,
        speed: Optional[float] = None,
        use_blocklist: bool = True,
        throughput_interval: float = 1.0,
        drop_window: float = 10.0,
        queue_depth: int = 8,
        snapshot_dir: Optional[str] = None,
        snapshot_interval: Optional[float] = None,
        control: Optional[str] = None,
        ready_fd: Optional[int] = None,
        handle_signals: bool = False,
    ) -> None:
        if speed is not None and speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1: {queue_depth}")
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError(
                f"snapshot_interval must be positive: {snapshot_interval}"
            )
        if snapshot_interval is not None and snapshot_dir is None:
            raise ValueError("snapshot_interval needs a snapshot_dir")
        self.source = source
        self.filter = packet_filter
        self.backend = backend or BatchedBackend()
        self.speed = speed
        self.queue_depth = queue_depth
        self.snapshot_dir = snapshot_dir
        self.snapshot_interval = snapshot_interval
        self.control_address = control
        #: Write end of the supervisor's readiness pipe (``None`` = none).
        self.ready_fd = ready_fd
        #: Install SIGTERM/SIGINT handlers while running: the first
        #: signal drains gracefully (and schedules a final snapshot when
        #: a snapshot_dir is configured), a second one force-discards.
        self.handle_signals = handle_signals
        # The stepper is built eagerly so restore() can rehydrate its
        # pipeline before the loop starts.
        self.stepper = self.backend.stepper(PipelineConfig(
            packet_filter=packet_filter,
            use_blocklist=use_blocklist,
            throughput_interval=throughput_interval,
            drop_window=drop_window,
            record_fingerprint=True,
        ))
        self.chunks_done = 0
        self.snapshot_sequence = 0
        #: What ended the ingest stream abnormally (None = clean EOF or
        #: deliberate stop); surfaced in the finalize summary and stats.
        self.ingest_error: Optional[str] = None
        self.result: Optional[ReplayResult] = None
        self.started_wall = time.time()
        self.state = "created"  # created → running → draining → finished
        self._stopping = False
        self._discard_remaining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._actions: Optional[asyncio.Queue] = None
        #: Notified whenever ``chunks_done`` grows and when the service
        #: finishes; the ``flush`` control verb waits on it.
        self._progress: Optional[asyncio.Condition] = None
        self._control_server = None
        self._pace_trace0: Optional[float] = None
        self._pace_wall0: Optional[float] = None
        self._signal_seen = False
        self._final_snapshot = False

    # -- warm restart ---------------------------------------------------

    @classmethod
    def restore(
        cls,
        snapshot_path: str,
        source: PacketSource,
        backend: Optional[ExecutionBackend] = None,
        **kwargs: Any,
    ) -> "FilterService":
        """Rebuild a service from a snapshot file (or a directory, whose
        latest snapshot is used) and fast-forward ``source`` past the
        chunks the snapshotted run already processed.

        The filter resumes on the *same* clock (``clock="resume"``):
        rotations that came due between snapshot and restart fire on the
        first packet, exactly as an uninterrupted run would have rotated.
        """
        if os.path.isdir(snapshot_path):
            found = latest_snapshot(snapshot_path)
            if found is None:
                raise FileNotFoundError(
                    f"no snapshot files in {snapshot_path}"
                )
            snapshot_path = found
        document = read_snapshot(snapshot_path)
        packet_filter = restore_filter(document["filter"], clock="resume")
        use_blocklist = document["router"]["blocklist"] is not None
        kwargs.setdefault("use_blocklist", use_blocklist)
        service = cls(source, packet_filter, backend, **kwargs)
        restore_pipeline(service.stepper.pipeline, document)
        service.chunks_done = document["chunks_done"]
        service.snapshot_sequence = document.get("sequence", 0)
        source.skip(document["chunks_done"])
        return service

    # -- introspection --------------------------------------------------

    @property
    def queue_size(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def finished(self) -> bool:
        return self.state == "finished"

    # -- lifecycle ------------------------------------------------------

    async def run(self) -> ReplayResult:
        """Run the service until the source ends or a drain/shutdown
        action finalizes it; returns the unified replay result."""
        if self.state != "created":
            raise ServiceError(f"service already {self.state}")
        self.state = "running"
        self.started_wall = time.time()
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._actions = asyncio.Queue()
        self._progress = asyncio.Condition()
        if self.control_address is not None:
            from repro.service.control import start_control_server

            self._control_server = await start_control_server(
                self, self.control_address
            )
        if self.ready_fd is not None:
            # The source is bound and the control server accepts: the
            # first ``health`` request answers from here on.
            fd, self.ready_fd = self.ready_fd, None
            try:
                os.write(fd, b"ready\n")
            finally:
                os.close(fd)
        signals_installed = []
        if self.handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self._handle_signal, signum
                    )
                    signals_installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    # Platforms without loop signal support (or non-main
                    # threads) just run unsupervised.
                    break
        ingest = asyncio.create_task(self._ingest())
        snapshotter = (
            asyncio.create_task(self._snapshot_loop())
            if self.snapshot_interval is not None
            else None
        )
        try:
            await self._filter_loop()
        finally:
            for signum in signals_installed:
                self._loop.remove_signal_handler(signum)
            self._stopping = True
            self.source.close()
            ingest.cancel()
            if snapshotter is not None:
                snapshotter.cancel()
            for task in (ingest, snapshotter):
                if task is not None:
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
            if self._control_server is not None:
                self._control_server.close()
                await self._control_server.wait_closed()
                self._control_server = None
        assert self.result is not None
        return self.result

    def run_forever(self) -> ReplayResult:
        """Synchronous entry point (the CLI's ``repro serve``)."""
        return asyncio.run(self.run())

    # -- control actions ------------------------------------------------

    async def _submit(self, kind: str, payload: Any = None) -> Any:
        """Queue one action for the filter loop and await its outcome."""
        if self.state == "finished" or self._actions is None:
            raise ServiceError("service is not running")
        future = self._loop.create_future()
        await self._actions.put((kind, payload, future))
        return await future

    async def reconfigure(self, **params: Any) -> dict:
        """Live-adjust drop-policy thresholds and/or the rotation
        interval; applied between chunks, returns what changed."""
        return await self._submit("config", params)

    async def request_snapshot(self) -> str:
        """Persist full service state between chunks; returns the path."""
        if self.snapshot_dir is None:
            raise ServiceError("service has no snapshot_dir")
        return await self._submit("snapshot")

    async def drain(self) -> dict:
        """Stop ingesting, process everything queued, finalize."""
        return await self._submit("drain")

    async def shutdown(self) -> dict:
        """Stop ingesting, discard the queue, finalize."""
        return await self._submit("shutdown")

    async def wait_for_chunks(self, chunks: int) -> int:
        """Block until at least ``chunks`` chunks are processed; returns
        ``chunks_done``.  Raises :class:`ServiceError` when the service
        finishes short of that count."""
        if self._progress is None:
            raise ServiceError("service is not running")
        async with self._progress:
            await self._progress.wait_for(
                lambda: self.chunks_done >= chunks or self.finished
            )
        if self.chunks_done < chunks:
            raise ServiceError(
                f"service finished after {self.chunks_done} of {chunks} chunks"
            )
        return self.chunks_done

    # -- signal supervision ---------------------------------------------

    def _handle_signal(self, signum: int) -> None:
        """SIGTERM/SIGINT policy: first signal drains gracefully (process
        the queued backlog, then finalize and — with a snapshot_dir — write
        one last snapshot, so a supervisor can restart from it); a second
        signal discards the backlog and shuts down now."""
        if not self._signal_seen:
            self._signal_seen = True
            if self.snapshot_dir is not None:
                self._final_snapshot = True
            self._loop.create_task(self._signal_stop(self.drain))
        else:
            self._discard_remaining = True
            self._loop.create_task(self._signal_stop(self.shutdown))

    async def _signal_stop(self, action) -> None:
        try:
            await action()
        except ServiceError:
            pass  # already draining or finished; nothing to stop

    # -- internal tasks -------------------------------------------------

    async def _ingest(self) -> None:
        """Pull chunks from the blocking source in a worker thread.

        No try/finally around the sentinel: if this task is *cancelled*
        (only done after the filter loop has already exited) the
        sentinel is moot, and an unconditional ``put(None)`` could block
        forever on a full queue with no consumer left.
        """
        iterator = iter(self.source)
        pull = functools.partial(next, iterator, None)
        while not self._stopping:
            try:
                chunk = await self._loop.run_in_executor(None, pull)
            except Exception as error:
                # A closed socket source raises mid-read on shutdown;
                # anything else also ends the stream (the filter loop
                # finalizes what it has).  Record what killed the feed —
                # a daemon that silently finalized on a corrupt frame is
                # indistinguishable from one that drained cleanly.
                if not self._stopping:
                    self.ingest_error = f"{type(error).__name__}: {error}"
                break
            if chunk is None or self._stopping:
                break
            await self._queue.put(chunk)
        await self._queue.put(None)

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            try:
                await self.request_snapshot()
            except ServiceError:
                return

    async def _pace(self, chunk: PacketTable) -> None:
        """Hold the chunk until its trace time comes due on the wall
        clock (scaled by ``speed``); the first chunk anchors the clocks.

        A draining service flushes its backlog flat out — pacing the
        queue after ingest has stopped would only delay the finalize the
        drain caller is waiting on."""
        if self.speed is None or self._stopping or not len(chunk):
            return
        first = chunk.timestamps[0]
        now = self._loop.time()
        if self._pace_trace0 is None:
            self._pace_trace0 = first
            self._pace_wall0 = now
            return
        target = self._pace_wall0 + (first - self._pace_trace0) / self.speed
        if target > now:
            await asyncio.sleep(target - now)

    async def _filter_loop(self) -> None:
        """The service's heart: chunks and control actions, interleaved.

        Persistent ``get`` tasks on both queues (never cancelled
        mid-wait, so no item is ever lost) race each other; actions win
        ties and always run between chunks.
        """
        chunk_get: Optional[asyncio.Task] = None
        action_get: Optional[asyncio.Task] = None
        finalizers = []
        stream_ended = False
        try:
            while True:
                if chunk_get is None:
                    chunk_get = asyncio.create_task(self._queue.get())
                if action_get is None:
                    action_get = asyncio.create_task(self._actions.get())
                done, _ = await asyncio.wait(
                    {chunk_get, action_get},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if action_get in done:
                    action = action_get.result()
                    action_get = None
                    if self._run_action(action, finalizers):
                        # Drain/shutdown: fall through to consume the
                        # chunk queue to its sentinel.
                        break
                    continue
                chunk = chunk_get.result()
                chunk_get = None
                if chunk is None:
                    stream_ended = True
                    break
                await self._process_chunk(chunk)
            # Drain/shutdown requested: consume what remains in the
            # chunk queue to its sentinel, then finalize.
            while not stream_ended:
                if chunk_get is None:
                    chunk_get = asyncio.create_task(self._queue.get())
                chunk = await chunk_get
                chunk_get = None
                if chunk is None:
                    break
                if not self._discard_remaining:
                    await self._process_chunk(chunk)
        finally:
            for task in (chunk_get, action_get):
                if task is not None:
                    task.cancel()
            self.result = self.stepper.finish()
            if self._final_snapshot:
                # Signal-initiated stop: persist the drained end state so
                # a supervisor restart resumes exactly here.  Post-finalize
                # timing is deliberate — the filter is quiescent and the
                # blocklist already compacted.
                try:
                    self.write_snapshot()
                except Exception:
                    pass  # dying is no reason to lose the drain result
            self.state = "finished"
            await self._notify_progress()
            summary = self._summary()
            for future in finalizers:
                if not future.done():
                    future.set_result(summary)
            # Actions that arrived too late fail cleanly.
            while self._actions is not None and not self._actions.empty():
                _, _, future = self._actions.get_nowait()
                if not future.done():
                    future.set_exception(ServiceError("service finished"))

    async def _process_chunk(self, chunk: PacketTable) -> None:
        await self._pace(chunk)
        await self._loop.run_in_executor(None, self.stepper.feed, chunk)
        self.chunks_done += 1
        await self._notify_progress()

    async def _notify_progress(self) -> None:
        async with self._progress:
            self._progress.notify_all()

    # -- action implementations -----------------------------------------

    def _run_action(self, action: Tuple[str, Any, asyncio.Future], finalizers) -> bool:
        """Execute one control action between chunks.  Returns True when
        the action ends the service (drain/shutdown)."""
        kind, payload, future = action
        try:
            if kind == "config":
                future.set_result(self._apply_config(payload or {}))
            elif kind == "snapshot":
                future.set_result(self.write_snapshot())
            elif kind == "drain":
                self._stopping = True
                self.state = "draining"
                self.source.close()
                finalizers.append(future)
                return True
            elif kind == "shutdown":
                self._stopping = True
                self._discard_remaining = True
                self.state = "draining"
                self.source.close()
                finalizers.append(future)
                return True
            else:
                raise ServiceError(f"unknown action: {kind!r}")
        except Exception as error:
            if not future.done():
                future.set_exception(error)
        return False

    def _apply_config(self, params: dict) -> dict:
        """Adjust drop-policy thresholds / rotation interval in place."""
        allowed = {"low_mbps", "high_mbps", "probability", "rotate_interval"}
        unknown = set(params) - allowed
        if unknown:
            raise ServiceError(f"unknown config keys: {sorted(unknown)}")
        applied: dict = {}
        controller = getattr(self.filter, "drop_controller", None)
        low = params.get("low_mbps")
        high = params.get("high_mbps")
        if low is not None or high is not None:
            if controller is None or not isinstance(
                controller.policy, RedDropPolicy
            ):
                raise ServiceError(
                    "filter has no RED drop policy to retune"
                )
            policy = controller.policy
            new_low = policy.low if low is None else low * 1e6
            new_high = policy.high if high is None else high * 1e6
            if new_low < 0 or new_high <= new_low:
                raise ServiceError(
                    f"need 0 <= low < high, got low={new_low} high={new_high}"
                )
            policy.low, policy.high = new_low, new_high
            applied["low_mbps"] = new_low / 1e6
            applied["high_mbps"] = new_high / 1e6
        if "probability" in params:
            if controller is None or not isinstance(
                controller.policy, StaticDropPolicy
            ):
                raise ServiceError(
                    "filter has no static drop policy to retune"
                )
            probability = params["probability"]
            if not 0.0 <= probability <= 1.0:
                raise ServiceError(f"probability out of [0,1]: {probability}")
            controller.policy._probability = probability
            applied["probability"] = probability
        interval = params.get("rotate_interval")
        if interval is not None:
            core = getattr(self.filter, "core", None)
            if core is None:
                raise ServiceError("filter has no rotating bitmap core")
            core.set_rotate_interval(
                interval, now=self.stepper.pipeline.last_ts
            )
            applied["rotate_interval"] = interval
        if not applied:
            raise ServiceError("no recognized config keys given")
        return applied

    def write_snapshot(self) -> str:
        """Persist full service state; must run while the filter is
        quiescent (the action path guarantees between-chunks timing)."""
        if self.snapshot_dir is None:
            raise ServiceError("service has no snapshot_dir")
        os.makedirs(self.snapshot_dir, exist_ok=True)
        self.snapshot_sequence += 1
        pipeline = self.stepper.pipeline
        payload = {
            "sequence": self.snapshot_sequence,
            "chunks_done": self.chunks_done,
            "pipeline": pipeline_counters(pipeline),
            "filter": self.filter.snapshot(),
            "router": pipeline.router.snapshot(),
            "source": self.source.describe(),
        }
        path = os.path.join(
            self.snapshot_dir, snapshot_name(self.snapshot_sequence)
        )
        return write_snapshot(path, payload)

    def _summary(self) -> dict:
        result = self.result
        return {
            "chunks_done": self.chunks_done,
            "packets": result.packets if result else 0,
            "inbound_packets": result.inbound_packets if result else 0,
            "inbound_dropped": result.inbound_dropped if result else 0,
            "fingerprint": result.fingerprint if result else None,
            "ingest_error": self.ingest_error,
        }
