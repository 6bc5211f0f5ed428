"""serve-socket: the live path, a unix-socket feed into ``FilterService``.

A feeder child process (``feeder.py``) holds every frame encoded
beforehand.  Each phase builds a fresh ``FilterService(SocketSource,
paper bitmap, BatchedBackend)`` in this process and has the feeder send
the whole trace:

* phase A sends flat out; backpressure bounds the backlog, so its rate
  is the highest sustainable rate (``pkts_per_s``);
* phase B sends on a fixed schedule at ``config.json``'s
  ``phase_b_pkts_per_s`` (open loop); a frame's latency runs from its
  scheduled send time to ``ReplayStepper.feed`` returning its verdicts;
  ``latency_p95_ms`` is the median over the run's phase-B passes of
  each pass's p95.

Phases run A, B, B until the run's time is up: the latency tail needs
more samples than the rate.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from repro.net import stream as stream_module
from repro.service import FilterService, SocketSource
from repro.sim.pipeline import SequentialBackend, BatchedBackend
from repro.sim.replay import replay
from repro.net.table import as_table

from common import (
    BENCH_DIR,
    CONFIG,
    OUT,
    Recorder,
    Workload,
    clock,
    diff_summaries,
    median,
    paper_bitmap,
    percentile,
    pinned,
    replay_summary,
    sized_chunks,
    sized_duration,
)
from tracing import patch

#: Packets per phase: the first 100k packets of the seed's trace.
PACKETS = 100_000
#: A phase-B run whose feeder sent frames later than this (p95) is
#: flagged: its latencies include the feeder's own stalls.
FEEDER_LATE_LIMIT_MS = 5.0


class StampedSocketSource(SocketSource):
    """A ``SocketSource`` that notes when it hands each chunk over."""

    def __iter__(self):
        self.yielded = []
        for table in super().__iter__():
            self.yielded.append(clock())
            yield table


def reference(seed: int, sequential: bool = False) -> dict:
    """Oracle: the whole trace as one table (or per packet)."""
    table = as_table(sized_chunks(seed, PACKETS, sized_duration(seed, PACKETS)))
    flt = paper_bitmap()
    if sequential:
        result = replay(table, flt, use_blocklist=True,
                        backend=SequentialBackend(), record_fingerprint=True)
    else:
        result = replay(table, flt, use_blocklist=True, batched=True,
                        record_fingerprint=True)
    return replay_summary(result, flt)


class ServeSocket(Workload):
    name = "serve-socket"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rate_b = CONFIG["phase_b_pkts_per_s"]
        self.socket_path = str(OUT / f"serve-{os.getpid()}.sock")
        self.feeder = None

    def start(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.feeder = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "feeder.py"),
             "--seed", str(self.seed), "--packets", str(PACKETS),
             "--socket", self.socket_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self.feeder.stdout.readline()
        if not ready:
            raise RuntimeError("feeder exited before it was ready")
        info = json.loads(ready)
        self.frames = info["frames"]
        self.packets = info["packets"]
        self.sizes = info["sizes"]
        self.wire_bytes = info["bytes"] + 4 * info["frames"]

    def close(self) -> None:
        feeder, self.feeder = self.feeder, None
        if feeder is None:
            return
        try:
            feeder.stdin.write(json.dumps({"quit": True}) + "\n")
            feeder.stdin.close()
        except OSError:
            pass
        try:
            feeder.wait(timeout=10)
        except subprocess.TimeoutExpired:
            feeder.kill()
            feeder.wait()
        feeder.stdout.close()

    # -- measurement ----------------------------------------------------

    def instrument(self, rec: Recorder, tracer) -> list:
        if tracer is None:
            return []
        return [patch(stream_module, "decode_table", lambda original: (
            tracer.wrap("net.decode", original)
        ))]

    def operation(self, rec: Recorder, tracer) -> None:
        self._phase(rec, tracer, None)
        self._phase(rec, tracer, self.rate_b)
        self._phase(rec, tracer, self.rate_b)

    def _phase(self, rec: Recorder, tracer, rate) -> None:
        phase = rec.ops
        rec.ops += 1
        started = clock()
        flt = paper_bitmap()
        source = StampedSocketSource.unix(self.socket_path)
        service = FilterService(source, flt, BatchedBackend(),
                                use_blocklist=True)
        stepper = service.stepper
        feeds = []

        def timed_feed(original):
            def feed(chunk):
                index = len(feeds)
                backlog = service.queue_size
                span = (tracer.open("sim.feed", (phase, index))
                        if tracer is not None else None)
                begin = clock()
                verdicts = original(chunk)
                feeds.append((begin, clock(), backlog))
                if span is not None:
                    tracer.close(span)
                return verdicts
            return feed

        patch(stepper, "feed", timed_feed)
        if tracer is not None:
            patch(stepper, "finish", lambda original: tracer.wrap(
                "sim.finish", original))
            root = tracer.open("service.run", phase)
            tracer.root = root.ident
        self.feeder.stdin.write(json.dumps({"rate": rate}) + "\n")
        self.feeder.stdin.flush()
        result = service.run_forever()
        finished = clock()
        if tracer is not None:
            tracer.close(root)
            tracer.root = None
        report = json.loads(self.feeder.stdout.readline())

        rec.attempted += self.frames
        missing = self.frames - len(feeds)
        rec.add("missing_chunks", missing)
        rec.add("setup_s", (feeds[0][0] if feeds else finished) - started)
        rec.add("ingest_errors", int(service.ingest_error is not None))
        if feeds:
            rec.add("backlog_max", max(backlog for _, _, backlog in feeds))
        for (begin, _, _), handed in zip(feeds, source.yielded):
            rec.add("queue_wait_ms", (begin - handed) * 1e3)
        memo = flt.hash_memo
        if memo.hits + memo.misses:
            rec.add("memo_hit_ratio", memo.hits / (memo.hits + memo.misses))
        summary = replay_summary(result, flt)
        rec.outputs.append((phase, summary))
        if rate is None:
            rec.add_rate(result.packets, finished - report["t0"])
            return
        before, latencies = 0, []
        for index, size in enumerate(self.sizes):
            due = report["t0"] + before / rate
            before += size
            done = feeds[index][1] if index < len(feeds) else math.inf
            latencies.append((done - due) * 1e3)
            rec.add("latency_ms", latencies[-1])
            rec.add("feeder_late_ms", (report["sent"][index] - due) * 1e3)
        rec.add("phase_latency_p95_ms", percentile(latencies, 95))

    # -- metrics --------------------------------------------------------

    def feeder_late_p95(self, rec: Recorder) -> float:
        return percentile(rec.get("feeder_late_ms"), 95)

    def end_to_end(self, rec: Recorder) -> dict:
        late = self.feeder_late_p95(rec)
        if late > FEEDER_LATE_LIMIT_MS:
            rec.notes["feeder_late"] = (
                f"FLAGGED: feeder p95 lateness {late:.2f} ms exceeds "
                f"{FEEDER_LATE_LIMIT_MS} ms; phase-B latencies include "
                "feeder stalls"
            )
        metrics = super().end_to_end(rec)
        # A host stall of tens of milliseconds delays every frame queued
        # behind it, and how many stalls a run meets varies; the p95 of
        # each phase-B pass, taken at its median over the run's passes,
        # moves with the service's own speed and not with that count.
        metrics["latency_p95_ms"] = median(rec.get("phase_latency_p95_ms"))
        return metrics

    def per_layer(self, rec: Recorder, tracer) -> dict:
        feed_ms = [d * 1e3 for d in tracer.durations("sim.feed")]
        queue_wait = rec.get("queue_wait_ms")
        return {
            "net.decode_ms.p50": percentile(
                [d * 1e3 for d in tracer.durations("net.decode")], 50),
            "net.wire_bytes_per_pkt": self.wire_bytes / self.packets,
            "sim.feed_ms.p50": percentile(feed_ms, 50),
            "sim.feed_ms.p95": percentile(feed_ms, 95),
            "sim.finish_s": median(tracer.durations("sim.finish")),
            "core.memo_hit_ratio": median(rec.get("memo_hit_ratio")),
            "service.queue_wait_ms.p50": percentile(queue_wait, 50),
            "service.queue_wait_ms.p95": percentile(queue_wait, 95),
            "service.backlog_max": max(rec.get("backlog_max") or [0]),
            "service.ingest_errors": sum(rec.get("ingest_errors")),
            "bench.feeder_late_ms.p95": self.feeder_late_p95(rec),
        }

    # -- oracle ---------------------------------------------------------

    def check(self, recorders, expect_fingerprint=None):
        want = reference(self.seed)
        problems, failed = [], 0
        for rec in recorders:
            failed += int(sum(rec.get("missing_chunks")))
            for phase, summary in rec.outputs:
                found = diff_summaries(f"phase {phase} vs one-table replay",
                                       summary, want)
                if expect_fingerprint is not None and \
                        summary["fingerprint"] != expect_fingerprint:
                    found.append(f"phase {phase}: fingerprint "
                                 f"{summary['fingerprint']:#x} != expected "
                                 f"{expect_fingerprint:#x}")
                if found:
                    failed += self.frames
                problems += found
        if want["packets"] != self.packets:
            problems.append(f"feeder sent {self.packets} packets, trace has "
                            f"{want['packets']}")
        pins = pinned(self.name, self.seed)
        if pins is not None:
            problems += diff_summaries("one-table replay vs pinned sequential",
                                       want, pins)
        return failed, problems
