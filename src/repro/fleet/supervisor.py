"""The fleet supervisor: shard daemons under one lifecycle.

:class:`FleetSupervisor` spawns one :class:`~repro.fleet.daemon.ShardDaemon`
per lane of a :class:`~repro.shard.plan.ShardPlan`, partitions each
incoming chunk with the plan, and streams every lane's sub-chunks to its
daemon as binary frames.  Transit traffic matching no shard runs
in-process through the same
:class:`~repro.shard.lifecycle.DefaultLaneFilter` the offline parallel
backend uses (lane -1).

Exactness across failures rests on three pieces that already hold
individually:

* every lane chunk ever sent is **retained**, so a restarted daemon can
  be replayed its whole epoch from frame zero;
* a warm restart (``--restore``) fast-forwards the daemon's socket
  source over ``chunks_done`` frames — decoding them first, keeping the
  interned pool in lockstep — so the resent stream resumes exactly where
  the snapshot left off (a cold restart simply reprocesses everything);
* the fleet verdict is lane-decomposed: per-shard verdict fingerprints
  combine through the order-independent
  :func:`~repro.shard.lifecycle.combine_lane_fingerprints`, and the
  merged blocklist is the union of per-shard stores (lanes own disjoint
  connections) compacted at the fleet's trace end.

The offline reference for all of it is
:func:`offline_reference` — ``parallel_replay(workers=1,
record_fingerprint=True)`` over an equivalently-built sharded filter —
and the fleet smoke holds the two bit-identical through crash-kills and
rolling restarts.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.filters.base import Verdict
from repro.filters.blocklist import BlockedConnectionStore
from repro.fleet.daemon import FleetError, ShardDaemon, await_ready, log_tail
from repro.fleet.spec import ShardFilterSpec
from repro.net.packet import SocketPair
from repro.net.table import PacketTable
from repro.service.control import ControlError
from repro.service.state import read_snapshot
from repro.shard.lifecycle import (
    DefaultLaneFilter,
    ShardLifecycle,
    combine_lane_fingerprints,
)
from repro.shard.plan import ShardPlan

MANIFEST_NAME = "fleet.json"


@dataclass
class FleetResult:
    """The fleet's merged outcome after :meth:`FleetSupervisor.drain`."""

    packets: int = 0
    inbound_packets: int = 0
    inbound_dropped: int = 0
    #: Lane-keyed fingerprint combination (lane -1 = default lane);
    #: equals the offline ``parallel_replay`` reference's fingerprint.
    fingerprint: int = 0
    lane_fingerprints: Dict[int, int] = field(default_factory=dict)
    #: Union of per-shard blocked-σ stores, compacted at the fleet's
    #: trace end; ``None`` when the fleet runs without blocklists.
    blocked: Optional[Dict[SocketPair, float]] = None
    suppressed_packets: int = 0
    suppressed_bytes: int = 0
    per_shard: Dict[str, dict] = field(default_factory=dict)
    restarts: int = 0
    chunks_fed: int = 0

    @property
    def inbound_drop_rate(self) -> float:
        if not self.inbound_packets:
            return 0.0
        return self.inbound_dropped / self.inbound_packets


class FleetSupervisor(ShardLifecycle):
    """N shard daemons, one plan, one lifecycle.

    ``snapshot_every`` checkpoints every shard after that many fed
    chunks (between-chunk snapshots, so each is consistent) — the warm
    base a crashed shard restarts from.  ``0`` disables checkpointing;
    crashed shards then restart cold and reprocess their whole epoch,
    which is slower but equally exact.
    """

    def __init__(
        self,
        plan: ShardPlan,
        workdir: str,
        spec: Optional[ShardFilterSpec] = None,
        default_verdict: Verdict = Verdict.PASS,
        snapshot_every: int = 8,
        boot_timeout: float = ShardDaemon.BOOT_TIMEOUT,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0: {snapshot_every}")
        self.plan = plan
        self.workdir = workdir
        self.spec = spec if spec is not None else ShardFilterSpec()
        self.default_verdict = default_verdict
        self.snapshot_every = snapshot_every
        os.makedirs(workdir, exist_ok=True)
        serve_args = self.spec.serve_args()
        self.daemons: List[ShardDaemon] = [
            ShardDaemon(lane, plan.label(lane), workdir, serve_args,
                        boot_timeout=boot_timeout)
            for lane in range(plan.lanes)
        ]
        self._retained: List[List[PacketTable]] = [[] for _ in self.daemons]
        self._default_chunks: List[PacketTable] = []
        self.chunks_fed = 0
        self._last_ts: Optional[float] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.workdir, MANIFEST_NAME)

    def launch(self) -> None:
        """Boot every shard daemon concurrently — start them all, then
        await every readiness handshake — and publish the fleet manifest.

        On any failure every child started is killed and reaped before
        the error propagates, including lanes that never got a feed
        connection (whose daemons would otherwise wait for a feed EOF).
        Shards already running are left alone, so a second launch is a
        no-op."""
        booting = [daemon for daemon in self.daemons if not daemon.alive]
        try:
            for daemon in booting:
                daemon.start()
            await_ready(booting)
        except BaseException:
            for daemon in booting:
                daemon.abort()
            raise
        self._write_manifest()

    def ping(self) -> dict:
        """Fleet-wide liveness: every shard's ping plus fleet counters."""
        return {
            "shards": [daemon.ping() for daemon in self.daemons],
            "chunks_fed": self.chunks_fed,
            "restarts": self.restarts,
        }

    def stop(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    @property
    def restarts(self) -> int:
        return sum(daemon.restarts for daemon in self.daemons)

    def _write_manifest(self) -> None:
        manifest = {
            "version": 1,
            "plan": self.plan.as_spec(),
            "filter": self.spec.as_spec(),
            "default_verdict": self.default_verdict.name,
            "shards": [
                {
                    "lane": daemon.lane,
                    "label": daemon.label,
                    "feed": daemon.feed_address,
                    "control": daemon.control_address,
                    "snapshot_dir": daemon.snapshot_dir,
                    "log": daemon.log_path,
                    "pid": daemon.process.pid if daemon.process else None,
                    "restarts": daemon.restarts,
                    "boot_s": daemon.boot_s,
                }
                for daemon in self.daemons
            ],
        }
        path = self.manifest_path
        staging = path + ".tmp"
        with open(staging, "w") as handle:
            json.dump(manifest, handle, indent=2)
        os.replace(staging, path)

    # -- the pump -------------------------------------------------------

    def feed(self, chunks) -> None:
        for chunk in chunks:
            self.feed_chunk(chunk)

    def feed_chunk(self, chunk: PacketTable) -> None:
        """Partition one chunk by the plan and fan the lanes out."""
        if len(chunk):
            self._last_ts = chunk.timestamps[len(chunk) - 1]
        lanes, default_lane = self.plan.partition_table(chunk)
        for lane, lane_chunk in enumerate(lanes):
            if not len(lane_chunk):
                continue
            self._retained[lane].append(lane_chunk)
            self._send(lane)
        if len(default_lane):
            self._default_chunks.append(default_lane)
        self.chunks_fed += 1
        if self.snapshot_every and self.chunks_fed % self.snapshot_every == 0:
            self.checkpoint()

    def _send(self, lane: int) -> None:
        """Send the lane's newest retained chunk, recovering the daemon
        (restart + full resend) on a dead process or a broken feed."""
        daemon = self.daemons[lane]
        if not daemon.alive:
            self._recover(lane)
            return  # the resend already covered the newest chunk
        try:
            daemon.send(self._retained[lane][-1])
        except (BrokenPipeError, ConnectionResetError, OSError):
            self._recover(lane)

    def _recover(self, lane: int) -> None:
        """Crash recovery (and each rolling-restart step): kill and reap
        whatever is left of the daemon, respawn it (warm when a snapshot
        exists) and resend the shard's entire retained epoch — the
        daemon's restored ``skip`` discards the already-processed prefix
        exactly."""
        daemon = self.daemons[lane]
        daemon.restart()
        try:
            for chunk in self._retained[lane]:
                daemon.send(chunk)
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            raise FleetError(
                f"shard {daemon.label} died during resend: {error}"
            ) from error
        self._write_manifest()

    def checkpoint(self) -> Dict[str, str]:
        """Snapshot every live shard between chunks; returns the paths."""
        paths: Dict[str, str] = {}
        for daemon in self.daemons:
            if not daemon.alive:
                continue
            try:
                with daemon.client() as client:
                    paths[daemon.label] = client.snapshot()
            except (ControlError, OSError):
                continue  # the next checkpoint (or cold resend) covers it
        return paths

    # -- fan-out control ------------------------------------------------

    def broadcast(self, cmd: str, **params) -> Dict[str, dict]:
        """One control request to every shard; responses keyed by label.

        A shard that cannot answer reports ``{"ok": False, "error": ...}``
        instead of failing the whole fan-out."""
        responses: Dict[str, dict] = {}
        for daemon in self.daemons:
            try:
                with daemon.client() as client:
                    responses[daemon.label] = client.request(cmd, **params)
            except (ControlError, OSError) as error:
                responses[daemon.label] = {"ok": False, "error": str(error)}
        return responses

    def configure(self, **params) -> Dict[str, dict]:
        """Fan out a live reconfiguration (RED thresholds, Δt, ...)."""
        responses = self.broadcast("config", **params)
        return {
            label: response.get("applied", response)
            for label, response in responses.items()
        }

    def stats(self) -> dict:
        """Aggregated fleet telemetry: per-shard stats documents plus
        fleet totals (counter sums and the combined lane fingerprint —
        shard lanes only; the in-process default lane finalizes at
        :meth:`drain`)."""
        shards: Dict[str, dict] = {}
        fingerprints: Dict[int, int] = {}
        totals = {"packets": 0, "inbound_packets": 0, "inbound_dropped": 0,
                  "blocklist_entries": 0}
        for daemon in self.daemons:
            lifecycle = {"restarts": daemon.restarts, "boot_s": daemon.boot_s}
            try:
                with daemon.client() as client:
                    stats = client.stats()
            except (ControlError, OSError) as error:
                shards[daemon.label] = {"error": str(error), **lifecycle}
                continue
            shards[daemon.label] = {**stats, **lifecycle}
            totals["packets"] += stats.get("packets", 0)
            totals["inbound_packets"] += stats.get("inbound_packets", 0)
            totals["inbound_dropped"] += stats.get("inbound_dropped", 0)
            if stats.get("blocklist"):
                totals["blocklist_entries"] += stats["blocklist"]["entries"]
            if stats.get("fingerprint") is not None:
                fingerprints[daemon.lane] = stats["fingerprint"]
        totals["fingerprint"] = combine_lane_fingerprints(fingerprints)
        return {"shards": shards, "totals": totals,
                "chunks_fed": self.chunks_fed, "restarts": self.restarts}

    # -- restarts -------------------------------------------------------

    def rolling_restart(self) -> None:
        """Restart every shard in turn, warm from a fresh snapshot, with
        the rest of the fleet untouched — the fleet as a whole never
        stops serving, so lanes go one at a time: at most one shard is
        ever down.  Per shard: snapshot (between chunks, so it is
        consistent), shutdown (queued frames are discarded — the resend
        re-covers them), respawn with ``--restore``, resend the epoch.
        A shard that dies mid-restart or lingers after acknowledging the
        shutdown takes the crash path: kill, reap, warm relaunch, resend."""
        for lane, daemon in enumerate(self.daemons):
            if daemon.alive:
                try:
                    with daemon.client() as client:
                        client.snapshot()
                        client.shutdown(timeout=None)
                except (ControlError, OSError):
                    pass  # a shard dying mid-restart is just the crash path
                try:
                    daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass  # the relaunch below kills and reaps it
            self._recover(lane)

    # -- drain ----------------------------------------------------------

    def flush(self, timeout: float = 120.0) -> None:
        """Block until every shard has processed every frame sent to it
        (recovering shards that died since the last send).

        Each shard answers a ``flush`` control request once its
        ``chunks_done`` reaches the frames sent; the deadline left is the
        request's timeout.  A shard that drops the request is on its way
        out (killed, or its feed broke): once it has exited it is
        recovered and asked again.  One still running at the deadline
        fails the flush."""
        deadline = time.monotonic() + timeout
        for lane, daemon in enumerate(self.daemons):
            while True:
                if not daemon.alive:
                    self._recover(lane)
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    with daemon.client(timeout=remaining) as client:
                        client.flush(daemon.frames_sent)
                    break
                except (ControlError, OSError) as error:
                    try:
                        daemon.wait(
                            timeout=max(0.0, deadline - time.monotonic())
                        )
                    except subprocess.TimeoutExpired:
                        raise FleetError(
                            f"shard {daemon.label} did not flush within "
                            f"{timeout:.0f}s: {error}"
                        ) from error

    def drain(self, timeout: float = 120.0) -> FleetResult:
        """Finalize the fleet and merge the verdict.

        Flushes every shard, takes one final consistent snapshot each
        (the blocked-σ rows live there, not in the stats document),
        drains the daemons for their summaries, replays the retained
        default-lane traffic in-process, and folds everything into one
        :class:`FleetResult` whose fingerprint and blocklist match the
        offline partitioned replay bit for bit.
        """
        self.flush(timeout=timeout)

        result = FleetResult(chunks_fed=self.chunks_fed)
        fingerprints: Dict[int, int] = {}
        use_blocklist = self.spec.use_blocklist
        merged_blocked: Dict[SocketPair, float] = {}

        # Two passes: request every shard's final snapshot and drain
        # first, then reap them all, so the daemons' exits overlap.
        for daemon in self.daemons:
            try:
                with daemon.client() as client:
                    snapshot_doc = read_snapshot(client.snapshot())
                    summary = client.drain(timeout=None)
            except (ControlError, OSError) as error:
                raise FleetError(
                    f"shard {daemon.label} failed to drain: {error}"
                ) from error
            result.per_shard[daemon.label] = summary
            result.packets += summary.get("packets", 0)
            result.inbound_packets += summary.get("inbound_packets", 0)
            result.inbound_dropped += summary.get("inbound_dropped", 0)
            if summary.get("fingerprint") is not None:
                fingerprints[daemon.lane] = summary["fingerprint"]
            blocklist_doc = snapshot_doc["router"].get("blocklist")
            if use_blocklist and blocklist_doc is not None:
                store = BlockedConnectionStore.restore(blocklist_doc)
                merged_blocked.update(store._blocked)
                result.suppressed_packets += store.suppressed_packets
                result.suppressed_bytes += store.suppressed_bytes
        for daemon in self.daemons:
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired as error:
                daemon.abort()
                raise FleetError(
                    f"shard {daemon.label} did not exit after draining:\n"
                    f"{log_tail(daemon.log_path)}"
                ) from error
            daemon.stop()

        if self._default_chunks:
            default = self._replay_default_lane()
            result.packets += default.packets
            result.inbound_packets += default.inbound_packets
            result.inbound_dropped += default.inbound_dropped
            if default.fingerprint is not None:
                fingerprints[-1] = default.fingerprint
            blocklist = default.router.blocklist
            if use_blocklist and blocklist is not None:
                merged_blocked.update(blocklist._blocked)
                result.suppressed_packets += blocklist.suppressed_packets
                result.suppressed_bytes += blocklist.suppressed_bytes

        if use_blocklist:
            # The offline merge compacts at the trace's end; matching it
            # here makes the merged table contents deterministic too.
            store = BlockedConnectionStore()
            store._blocked = merged_blocked
            if self._last_ts is not None:
                store.compact(self._last_ts)
            result.blocked = store._blocked

        result.lane_fingerprints = fingerprints
        result.fingerprint = combine_lane_fingerprints(fingerprints)
        result.restarts = self.restarts
        return result

    def _replay_default_lane(self):
        """The transit (default) lane, replayed in-process exactly as the
        offline parallel backend runs it."""
        from repro.net.table import as_table
        from repro.sim.replay import replay

        return replay(
            as_table(self._default_chunks),
            DefaultLaneFilter(self.default_verdict),
            use_blocklist=self.spec.use_blocklist,
            batched=True,
            record_fingerprint=True,
        )


def offline_reference(
    packets,
    plan: ShardPlan,
    spec: ShardFilterSpec,
    default_verdict: Verdict = Verdict.PASS,
):
    """The fleet's equivalence baseline: a single-process partitioned
    replay over an identically-built sharded filter, with per-lane
    fingerprints.  ``result.fingerprint`` and
    ``result.router.blocklist`` are what :meth:`FleetSupervisor.drain`
    must reproduce bit-identically."""
    from repro.filters.sharded import ShardedFilter
    from repro.sim.parallel import parallel_replay

    members = [spec.build_filter() for _ in range(plan.lanes)]
    sharded = ShardedFilter.from_plan(
        plan, members, default_verdict=default_verdict
    )
    return parallel_replay(
        packets,
        sharded,
        workers=1,
        use_blocklist=spec.use_blocklist,
        record_fingerprint=True,
    )
