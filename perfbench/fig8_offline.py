"""fig8-offline: the paper's Figure 8 job, run as a batch.

One job synthesises a calibrated trace (``TraceGenerator.table()``) and
replays it with ``compare_drop_rates(..., batched=True)`` through SPI
(idle 240 s) and the paper's bitmap ({4 x 2^20}, m = 3, dt = 5 s, RED
P_d band), blocklist on.  Jobs repeat until the run's time is up.
"""

from __future__ import annotations

import importlib

from repro.filters.spi import SPIFilter
from repro.net.table import PacketTable
from repro.sim.replay import compare_drop_rates
from repro.sim.kernels import kernel_for
from repro.sim.pipeline import SequentialBackend
from repro.workload.generator import TraceGenerator

from common import (
    Recorder,
    Workload,
    clock,
    diff_summaries,
    median,
    paper_bitmap,
    pinned,
    replay_summary,
    sized_duration,
    trace_config,
)
from tracing import call, patch

#: Packets per job: the first 80k packets of the seed's trace.
PACKETS = 80_000
#: ``repro.sim`` re-exports the function under the submodule's name.
replay_module = importlib.import_module("repro.sim.replay")
#: ``replay`` as the program defines it; traced runs wrap the module
#: attribute that ``compare_drop_rates`` calls.
replay = replay_module.replay


FILTERS = {"spi": lambda: SPIFilter(idle_timeout=240.0),
           "bitmap": paper_bitmap}


def build_filters():
    return {name: build() for name, build in FILTERS.items()}


def generate(seed: int, duration: float) -> PacketTable:
    table = TraceGenerator(trace_config(duration, seed)).table()
    return table.slice(0, PACKETS)


def reference(seed: int, sequential: bool = False) -> dict:
    """Per-filter oracle: the same trace replayed in 4096-packet chunks
    (or per packet), verdict fingerprint recorded."""
    table = generate(seed, sized_duration(seed, PACKETS))
    summaries = {}
    for name, flt in build_filters().items():
        if sequential:
            result = replay(
                table, flt, use_blocklist=True, backend=SequentialBackend(),
                record_fingerprint=True,
            )
        else:
            result = replay(
                table, flt, use_blocklist=True, batched=True, chunk_size=4096,
                record_fingerprint=True,
            )
        summaries[name] = replay_summary(result, flt)
    return summaries


#: Why the bitmap's kernel and accounting cannot be split from outside.
BITMAP_FUSED = (
    "not measurable from outside: the replay runs the bitmap through "
    "process_table_fast, one fused loop over offered load, blocklist, "
    "filter and metrics; kernel_for(f).filter_table runs a different "
    "path (process_batch over PacketColumns), so its time is not the "
    "replay's kernel time"
)


class Fig8Offline(Workload):
    name = "fig8-offline"

    def start(self) -> None:
        self.duration = sized_duration(self.seed, PACKETS)

    def instrument(self, rec: Recorder, tracer) -> list:
        if tracer is None:
            return []
        return [patch(replay_module, "replay", lambda original: (
            lambda packets, flt, *a, **k: call(
                tracer, f"sim.replay.{flt.name}", original, packets, flt,
                *a, **k)
        ))]

    def operation(self, rec: Recorder, tracer) -> None:
        if tracer is not None:
            tracer.request = rec.ops
        started = clock()
        filters = build_filters()
        built = clock()
        table = call(tracer, "workload.generate", generate, self.seed,
                     self.duration)
        comparison = compare_drop_rates(table, filters, use_blocklist=True,
                                        batched=True)
        done = clock()
        packets = sum(result.packets for result in comparison.results.values())
        rec.add("setup_s", built - started)
        rec.add_rate(packets, done - built)
        rec.add("latency_ms", (done - started) * 1e3)
        rec.ops += 1
        rec.attempted += len(filters)
        rec.outputs.append({
            name: replay_summary(comparison.results[name], flt)
            for name, flt in filters.items()
        })
        memo = filters["bitmap"].hash_memo
        if memo.hits + memo.misses:
            rec.add("memo_hit_ratio", memo.hits / (memo.hits + memo.misses))
        rec.add("state_bytes.spi", filters["spi"].peak_memory_bytes)
        rec.add("state_bytes.bitmap", filters["bitmap"].memory_bytes)
        if tracer is not None:
            self._split_spi(rec, tracer, table)

    def _split_spi(self, rec, tracer, table) -> None:
        """Outside the job's timing: SPI's fused filter-only kernel
        (``kernel_for(f).filter_table`` on a fresh filter) and a
        blocklist-off replay; accounting is the replay minus the kernel."""
        flt = FILTERS["spi"]()
        span = tracer.open("bench.kernel.spi")
        kernel_for(flt).filter_table(flt, table)
        tracer.close(span)
        begin = clock()
        replay(table, FILTERS["spi"](), use_blocklist=False, batched=True)
        kernel_s = span.end - span.start
        rec.add("kernel_s.spi", kernel_s)
        rec.add("accounting_s.spi", clock() - begin - kernel_s)

    # -- metrics --------------------------------------------------------

    def per_layer(self, rec: Recorder, tracer) -> dict:
        metrics = {
            "workload.generate_s": median(tracer.durations("workload.generate")),
            "core.memo_hit_ratio": median(rec.get("memo_hit_ratio")),
            "filters.state_bytes.spi": median(rec.get("state_bytes.spi")),
            "filters.state_bytes.bitmap":
                median(rec.get("state_bytes.bitmap")),
        }
        for name in FILTERS:
            metrics[f"sim.replay_s.{name}"] = median(
                tracer.durations(f"sim.replay.{name}"))
        metrics["sim.kernel_s.spi"] = median(rec.get("kernel_s.spi"))
        metrics["sim.accounting_s.spi"] = median(rec.get("accounting_s.spi"))
        rec.notes["sim.kernel_s.bitmap"] = BITMAP_FUSED
        rec.notes["sim.accounting_s.bitmap"] = BITMAP_FUSED
        return metrics

    # -- oracle ---------------------------------------------------------

    def check(self, recorders, expect_fingerprint=None):
        want = reference(self.seed)
        problems, failed = [], 0
        for rec in recorders:
            for job, output in enumerate(rec.outputs):
                for name in FILTERS:
                    found = diff_summaries(
                        f"job {job} {name} vs chunked replay", output[name],
                        want[name],
                        ("packets", "inbound_packets", "inbound_dropped",
                         "stats", "blocked"),
                    )
                    failed += bool(found)
                    problems += found
        pins = pinned(self.name, self.seed)
        if pins is not None:
            for name in FILTERS:
                problems += diff_summaries(
                    f"chunked replay {name} vs pinned sequential", want[name],
                    pins[name])
        if expect_fingerprint is not None:
            got = want["bitmap"]["fingerprint"]
            if got != expect_fingerprint:
                problems.append(f"bitmap fingerprint {got:#x} != expected "
                                f"{expect_fingerprint:#x}")
        return failed, problems
