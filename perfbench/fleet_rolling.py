"""fleet-rolling: two shard daemons, a rolling restart at mid-trace.

Each repetition boots a ``FleetSupervisor`` over ``HashShardPlan(2)``
with the paper's bitmap spec, feeds chunks generated beforehand flat
out, restarts every shard in turn at mid-trace (``rolling_restart()``
then ``flush()``: every shard caught up), and drains.  Repetitions run
until the run's time is up.

The rate runs from the first chunk fed to the drained result, so it
covers the rolling restart: snapshot write, restore and the resend of
retained epochs.  A daemon's boot and restart move in steps of a few
tenths of a second: the supervisor polls its control socket with a
doubling back-off, so a daemon ready just after one poll waits for the
next.
"""

from __future__ import annotations

import os
import shutil
from statistics import mean

from repro.filters.sharded import ShardedFilter
from repro.fleet import FleetSupervisor, ShardFilterSpec, offline_reference
from repro.net import stream as stream_module
from repro.net.table import as_table
from repro.shard.plan import HashShardPlan
from repro.sim.parallel import parallel_replay

from common import (
    OUT,
    Recorder,
    Workload,
    blocked_digest,
    clock,
    diff_summaries,
    median,
    percentile,
    pinned,
    sized_chunks,
    sized_duration,
)
from tracing import call, patch

#: Packets per repetition: the first 200k packets of the seed's trace.
PACKETS = 200_000
LANES = 2
#: Hash each client host, not each /24: the synthetic client network's
#: hosts share one /24, which the default plan sends to a single lane.
SUBNET_PREFIX = 32


def fleet_plan() -> HashShardPlan:
    return HashShardPlan(LANES, subnet_prefix=SUBNET_PREFIX)


def chunks_for(seed: int):
    return sized_chunks(seed, PACKETS, sized_duration(seed, PACKETS))


def reference(seed: int, sequential: bool = False) -> dict:
    """Oracle: the single-process partitioned replay the fleet must
    match (``offline_reference``), or its per-packet twin."""
    table = as_table(chunks_for(seed))
    plan, spec = fleet_plan(), ShardFilterSpec()
    if sequential:
        sharded = ShardedFilter.from_plan(
            plan, [spec.build_filter() for _ in range(LANES)])
        result = parallel_replay(table, sharded, workers=1, batched=False,
                                 use_blocklist=spec.use_blocklist,
                                 record_fingerprint=True)
    else:
        result = offline_reference(table, plan, spec)
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "blocked": blocked_digest(result.router.blocklist._blocked),
        "fingerprint": result.fingerprint,
    }


class FleetRolling(Workload):
    name = "fleet-rolling"

    def start(self) -> None:
        self.chunks = chunks_for(self.seed)

    def instrument(self, rec: Recorder, tracer) -> list:
        if tracer is None:
            return []
        return [patch(stream_module.FrameWriter, "send",
                      lambda original: tracer.wrap("net.send", original))]

    def operation(self, rec: Recorder, tracer) -> None:
        rep = rec.ops
        rec.ops += 1
        workdir = str(OUT / f"fleet-{os.getpid()}-{rep}")
        plan = fleet_plan()
        lane_packets = [0] * LANES
        if tracer is not None:
            tracer.request = rep

            def partition(original):
                def split(table):
                    lanes, default = call(tracer, "shard.partition_table",
                                          original, table)
                    for lane, lane_table in enumerate(lanes):
                        lane_packets[lane] += len(lane_table)
                        rec.add("lane_frames", int(len(lane_table) > 0))
                    return lanes, default
                return split
            patch(plan, "partition_table", partition)
        supervisor = FleetSupervisor(plan, workdir, spec=ShardFilterSpec())
        try:
            begin = clock()
            call(tracer, "fleet.launch", supervisor.launch)
            booted = clock()
            middle = len(self.chunks) // 2
            for index, chunk in enumerate(self.chunks):
                if index == middle:
                    restart = clock()
                    call(tracer, "fleet.rolling_restart",
                         supervisor.rolling_restart)
                    call(tracer, "fleet.flush", supervisor.flush)
                    recovery = clock() - restart
                sent = clock()
                call(tracer, "fleet.feed_chunk", supervisor.feed_chunk, chunk,
                     request=(rep, index))
                rec.add("latency_ms", (clock() - sent) * 1e3)
            result = call(tracer, "fleet.drain", supervisor.drain)
            done = clock()
        finally:
            supervisor.stop()
            shutil.rmtree(workdir, ignore_errors=True)
        rec.attempted += len(self.chunks)
        rec.add("setup_s", booted - begin)
        rec.add("recovery_s", recovery)
        rec.add_rate(result.packets, done - booted)
        rec.add("restarts", result.restarts)
        if tracer is not None:
            average = sum(lane_packets) / LANES
            rec.add("lane_skew",
                    max(lane_packets) / average if average else 0.0)
        rec.outputs.append((rep, {
            "packets": result.packets,
            "inbound_packets": result.inbound_packets,
            "inbound_dropped": result.inbound_dropped,
            "blocked": blocked_digest(result.blocked),
            "fingerprint": result.fingerprint,
            "restarts": result.restarts,
        }))

    # -- metrics --------------------------------------------------------

    def end_to_end(self, rec: Recorder) -> dict:
        metrics = super().end_to_end(rec)
        # A boot takes one of a few poll-quantised values (0.7, 1.1 or
        # 1.5 s for two daemons, about equally often); their mean over
        # the run's repetitions moves smoothly where the median jumps.
        metrics["setup_s"] = mean(rec.get("setup_s"))
        return metrics

    def per_layer(self, rec: Recorder, tracer) -> dict:
        feed_ms = [d * 1e3 for d in tracer.durations("fleet.feed_chunk")]
        sends = len(tracer.durations("net.send"))
        one_pass = sum(rec.get("lane_frames"))
        return {
            "net.encode_ms.p50": percentile(
                [d * 1e3 for d in tracer.durations("net.send")], 50),
            "shard.partition_ms.p50": percentile(
                [d * 1e3 for d in tracer.durations("shard.partition_table")],
                50),
            "shard.lane_skew": median(rec.get("lane_skew")),
            "fleet.boot_s": median(tracer.durations("fleet.launch")),
            "fleet.feed_chunk_ms.p50": percentile(feed_ms, 50),
            "fleet.feed_chunk_ms.p95": percentile(feed_ms, 95),
            "fleet.drain_s": median(tracer.durations("fleet.drain")),
            "fleet.recovery_s": median(rec.get("recovery_s")),
            "fleet.resent_frames": (sends - one_pass) / max(1, rec.ops),
            "fleet.restarts": median(rec.get("restarts")),
        }

    # -- oracle ---------------------------------------------------------

    def check(self, recorders, expect_fingerprint=None):
        want = reference(self.seed)
        problems, failed = [], 0
        for rec in recorders:
            for rep, summary in rec.outputs:
                found = diff_summaries(f"rep {rep} vs offline_reference",
                                       summary, want)
                if summary["restarts"] != LANES:
                    found.append(f"rep {rep}: {summary['restarts']} restarts, "
                                 f"expected one per shard ({LANES})")
                if expect_fingerprint is not None and \
                        summary["fingerprint"] != expect_fingerprint:
                    found.append(f"rep {rep}: fingerprint "
                                 f"{summary['fingerprint']:#x} != expected "
                                 f"{expect_fingerprint:#x}")
                if found:
                    failed += len(self.chunks)
                problems += found
        pins = pinned(self.name, self.seed)
        if pins is not None:
            problems += diff_summaries(
                "offline_reference vs pinned sequential", want, pins)
        return failed, problems

