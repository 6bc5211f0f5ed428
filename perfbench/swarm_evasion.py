"""swarm-evasion: the per-packet reference path under a closed loop.

A run repeats the seed's engagement, one ``SwarmSimulator`` run as
``benchmarks/bench_swarm.py`` sizes it: 16 peers x 4 clients, 90 s,
the full evasion cycle (link churn and redials, periodic re-announce
and optimistic unchoke rotation all fire), static P_d = 0.9, no
blocklist, against the paper's bitmap ({4 x 2^20}, m = 3, dt = 5 s).
Every packet goes through ``ReplayPipeline.process``; a packet's
latency is that call.
"""

from __future__ import annotations

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.sim.pipeline import ReplayPipeline
from repro.swarm import EvasionPolicy, SwarmConfig, SwarmSimulator
from repro.swarm import engine as engine_module

from common import (
    PAPER_BITMAP,
    Recorder,
    Workload,
    clock,
    median,
    pinned,
    sha256_json,
)
from tracing import patch

SWARM = dict(peers=16, clients=4, duration=90.0)
DROP_PROBABILITY = 0.9
#: Set-ups timed per engagement (filter and simulator construction);
#: the last one runs.
SETUPS = 5


def engagement(seed: int):
    packet_filter = BitmapPacketFilter(
        BitmapFilterConfig(**PAPER_BITMAP),
        DropController(StaticDropPolicy(DROP_PROBABILITY)),
    )
    config = SwarmConfig(seed=seed, evasion=EvasionPolicy(), **SWARM)
    return packet_filter, SwarmSimulator(packet_filter, config)


def summary(result) -> dict:
    document = result.as_dict()
    return {"digest": sha256_json(document),
            "fingerprint": document["fingerprint"],
            "tactic_attempts": document["tactic_attempts"]}


def reference(seed: int, sequential: bool = True) -> dict:
    """The seed's engagement, run untimed: digest and fingerprint (the
    swarm runs per packet whatever ``sequential`` says)."""
    return summary(engagement(seed)[1].run())


class SwarmEvasion(Workload):
    name = "swarm-evasion"

    def instrument(self, rec: Recorder, tracer) -> list:
        latencies = rec.samples.setdefault("latency_ms", [])

        def timed_process(original):
            def process(pipeline, packet):
                begin = clock()
                verdict = original(pipeline, packet)
                latencies.append((clock() - begin) * 1e3)
                return verdict
            if tracer is None:
                return process
            return tracer.wrap("sim.process", process)

        undo = [patch(ReplayPipeline, "process", timed_process)]
        if tracer is not None:
            undo.append(patch(engine_module, "connection_packets",
                              lambda original: tracer.wrap(
                                  "workload.connection_packets", original)))
        return undo

    def operation(self, rec: Recorder, tracer) -> None:
        run = rec.ops
        rec.ops += 1
        for _ in range(SETUPS):
            started = clock()
            packet_filter, simulator = engagement(self.seed)
            built = clock()
            rec.add("setup_s", built - started)
        if tracer is not None:
            tracer.request = run
            patch(packet_filter, "process",
                  lambda original: tracer.wrap("filters.process", original))
            root = tracer.open("swarm.run", run)
        began = clock()
        result = simulator.run()
        done = clock()
        if tracer is not None:
            tracer.close(root)
            self._layer_samples(rec, tracer, root)
        rec.attempted += 1
        rec.add_rate(result.replay.packets, done - began)
        rec.add("attempts", result.attempts_total)
        rec.add("admitted", result.attempts_admitted)
        rec.outputs.append((run, summary(result)))

    def _layer_samples(self, rec, tracer, root) -> None:
        """Per-run sums of the spans inside one ``swarm.run`` span."""
        inside = [span for span in tracer.spans[root.ident + 1:]
                  if span.start >= root.start and span.end <= root.end]
        run_s = root.end - root.start
        process = [s.end - s.start for s in inside
                   if s.name == "filters.process"]
        generate = [s.end - s.start for s in inside
                    if s.name == "workload.connection_packets"]
        rec.add("run_s", run_s)
        rec.add("process_calls", len(process))
        rec.add("process_s", sum(process))
        rec.add("process_share", sum(process) / run_s)
        rec.add("connections", len(generate))
        rec.add("connection_packets_s", sum(generate))
        rec.add("engine_self_s", run_s - sum(process) - sum(generate))

    # -- metrics --------------------------------------------------------

    def per_layer(self, rec: Recorder, tracer) -> dict:
        calls = sum(rec.get("process_calls"))
        return {
            "workload.connection_packets_s":
                median(rec.get("connection_packets_s")),
            "workload.connections": median(rec.get("connections")),
            "filters.process_us":
                sum(rec.get("process_s")) / calls * 1e6 if calls else 0.0,
            "filters.process_calls": median(rec.get("process_calls")),
            "filters.process_share": median(rec.get("process_share")),
            "swarm.run_s": median(rec.get("run_s")),
            "swarm.engine_self_s": median(rec.get("engine_self_s")),
            "swarm.attempts": median(rec.get("attempts")),
            "swarm.admitted": median(rec.get("admitted")),
        }

    # -- oracle ---------------------------------------------------------

    def check(self, recorders, expect_fingerprint=None):
        """Every run must serialise byte-identically (to the first run,
        or to the pin on a pinned seed)."""
        problems, failed = [], 0
        want = pinned(self.name, self.seed)
        for rec in recorders:
            for run, got in rec.outputs:
                if want is None:
                    want = got
                found = []
                if got["digest"] != want["digest"]:
                    found.append(f"run {run}: SwarmResult digest "
                                 f"{got['digest'][:16]} != "
                                 f"{want['digest'][:16]}")
                if expect_fingerprint is not None and \
                        got["fingerprint"] != expect_fingerprint:
                    found.append(f"run {run}: fingerprint "
                                 f"{got['fingerprint']:#x} != expected "
                                 f"{expect_fingerprint:#x}")
                failed += bool(found)
                problems += found
        return failed, problems
