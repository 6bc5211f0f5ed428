"""The edge router: filter + blocked-connection persistence + accounting.

The section 5.3 replay methodology: a packet first checks the blocked-σ
store (a connection once refused stays refused); surviving packets go to
the filter; inbound drops register the connection as blocked.  Passed
traffic feeds the throughput series.

:meth:`EdgeRouter.forward` does all of that per packet.  The batched
entry points split it in two: a kernel (:mod:`repro.sim.kernels`)
decides every verdict and keeps the blocklist, then
:func:`account_chunk` — the one accounting stage — records the chunk's
measurements from its timestamp, size and direction columns and the
verdicts.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import is_
from typing import List, Optional, Sequence, Tuple

from repro.filters.base import FilterStats, PacketFilter, Verdict
from repro.filters.blocklist import BlockedConnectionStore
from repro.net.packet import Direction, Packet
from repro.net.table import PacketTable, _np, _np_enabled
from repro.sim.metrics import DropRateSampler, ThroughputSeries


class EdgeRouter:
    """One deployment point of Figure 6, as replayable code."""

    def __init__(
        self,
        packet_filter: PacketFilter,
        blocklist: Optional[BlockedConnectionStore] = None,
        throughput_interval: float = 1.0,
        drop_window: float = 10.0,
    ) -> None:
        self.filter = packet_filter
        self.blocklist = blocklist
        self.passed = ThroughputSeries(interval=throughput_interval)
        self.offered = ThroughputSeries(interval=throughput_interval)
        self.inbound_drops = DropRateSampler(window=drop_window)
        self.packets = 0

    def forward(self, packet: Packet) -> Verdict:
        """Run one packet through the router; returns the final verdict."""
        if packet.direction is None:
            raise ValueError("packet has no direction set")
        self.packets += 1
        self.offered.record(packet)

        if self.blocklist is not None and self.blocklist.suppress(packet):
            if packet.direction is Direction.INBOUND:
                self.inbound_drops.record(packet.timestamp, dropped=True)
            return Verdict.DROP

        verdict = self.filter.process(packet)
        if packet.direction is Direction.INBOUND:
            self.inbound_drops.record(packet.timestamp, verdict is Verdict.DROP)
            if verdict is Verdict.DROP and self.blocklist is not None:
                self.blocklist.block(packet.pair, packet.timestamp)
        if verdict is Verdict.PASS:
            self.passed.record(packet)
        return verdict

    def process_batch(self, packets: Sequence[Packet]) -> List[Verdict]:
        """Run a timestamp-ordered batch through the router.

        Produces exactly the verdicts ``[self.forward(p) for p in packets]``
        would, with the same router, filter and blocklist state after.
        """
        return self.forward_batch(packets)[0]

    def process_table(self, table) -> List[Verdict]:
        """Run a timestamp-ordered :class:`~repro.net.table.PacketTable`
        through the router; same verdicts as :meth:`process_batch` on
        ``table.to_packets()``."""
        return self.forward_table(table)[0]

    def forward_batch(
        self, packets: Sequence[Packet]
    ) -> Tuple[List[Verdict], FilterStats]:
        """:meth:`process_batch` plus the chunk's :func:`account_chunk`
        tally (what the replay pipeline counts inbound packets and drops
        from)."""
        kernel = self._kernel()
        if kernel is not None:
            return self._run_kernel(kernel, kernel.columns(self.filter, packets))
        return self._run_unfused(packets, PacketTable.from_packets(packets))

    def forward_table(self, table) -> Tuple[List[Verdict], FilterStats]:
        """:meth:`process_table` plus the chunk's :func:`account_chunk` tally.

        Registered filters take their table-native kernel and never build
        a :class:`Packet`.
        """
        kernel = self._kernel()
        if kernel is not None:
            return self._run_kernel(kernel, table)
        # forward() only needs the reused row cursor; a filter's
        # process_batch may keep the packets it is handed.
        packets = table.to_packets() if self.blocklist is None else table.iter_views()
        return self._run_unfused(packets, table)

    def _kernel(self):
        """The filter's decide-only kernel (:mod:`repro.sim.kernels`), or
        None when the filter has none or the kernel cannot interleave this
        router's blocklist (the chain's staged members)."""
        from repro.sim.kernels import kernel_for

        kernel = kernel_for(self.filter)
        if kernel is None or (
            self.blocklist is not None and not kernel.fuses_blocklist
        ):
            return None
        return kernel

    def _run_kernel(self, kernel, columns) -> Tuple[List[Verdict], FilterStats]:
        verdicts, suppressed = kernel.run(self.filter, columns, self.blocklist)
        tally = account_chunk(
            columns.timestamps, columns.sizes, columns.outbound, verdicts, self
        )
        # The filter never saw the packets the blocklist suppressed.
        self.filter.stats.merge(tally).merge(suppressed, sign=-1)
        return verdicts, tally

    def _run_unfused(self, packets, columns) -> Tuple[List[Verdict], FilterStats]:
        """A filter without a kernel.  Blocklist-free, its own
        ``process_batch`` decides (keeping its statistics) and the router
        measures after — exact, because filter state never depends on the
        measurements.  With a blocklist, suppression must interleave with
        the verdicts, so each packet goes through :meth:`forward`, which
        measures as it goes; the tally is then computed on the side."""
        if self.blocklist is None:
            verdicts = self.filter.process_batch(packets)
            measured = self
        else:
            verdicts = [self.forward(packet) for packet in packets]
            measured = None
        tally = account_chunk(
            columns.timestamps, columns.sizes, columns.outbound, verdicts,
            measured,
        )
        return verdicts, tally

    def merge_lane(self, lane) -> "EdgeRouter":
        """Fold one partitioned-replay lane's measurements into this router.

        ``lane`` is anything exposing ``offered``/``passed`` series, an
        ``inbound_drops`` sampler and a ``packets`` count — a
        :class:`repro.sim.parallel.LaneResult` or another router/result.
        Series bins and drop windows are keyed by absolute trace time, so
        merging per-lane records reproduces exactly the measurements one
        interleaved replay would have collected.
        """
        self.offered.merge(lane.offered)
        self.passed.merge(lane.passed)
        self.inbound_drops.merge(lane.inbound_drops)
        self.packets += lane.packets
        return self

    @property
    def drop_rate(self) -> float:
        """Overall inbound drop rate including blocklist suppressions."""
        return self.inbound_drops.overall_drop_rate()

    # ------------------------------------------------------------------
    # Persistence — the service plane's warm-restart coverage
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable router measurement lanes + blocklist.

        Covers everything the router owns *except the filter* (which has
        its own snapshot with deeper state — bits, RNG, estimator): the
        offered/passed throughput lanes, the inbound drop-rate windows,
        the packet counter and the blocked-σ store.  Restoring this over
        a fresh router makes a resumed service's telemetry continue the
        same series an uninterrupted run would have produced.
        """
        return {
            "packets": self.packets,
            "offered": self.offered.snapshot(),
            "passed": self.passed.snapshot(),
            "inbound_drops": self.inbound_drops.snapshot(),
            "blocklist": (
                self.blocklist.snapshot() if self.blocklist is not None else None
            ),
        }

    def restore_state(self, snapshot: dict) -> "EdgeRouter":
        """Overwrite this router's measurement lanes and blocklist with a
        :meth:`snapshot`'s contents (the filter is untouched — restore it
        separately).  Returns ``self``."""
        self.packets = snapshot["packets"]
        self.offered = ThroughputSeries.restore(snapshot["offered"])
        self.passed = ThroughputSeries.restore(snapshot["passed"])
        self.inbound_drops = DropRateSampler.restore(snapshot["inbound_drops"])
        if self.passed.interval != self.offered.interval:
            raise ValueError("offered and passed series must share one interval")
        blocked = snapshot["blocklist"]
        if blocked is not None:
            self.blocklist = BlockedConnectionStore.restore(blocked)
        elif self.blocklist is not None:
            # The snapshot ran without a blocklist; a restored service
            # must not invent one (suppression would diverge).
            self.blocklist = None
        return self


# ----------------------------------------------------------------------
# The accounting stage
# ----------------------------------------------------------------------

#: Below this many rows the numpy path's fixed cost outweighs the loop.
_NUMPY_MIN_ROWS = 64
#: float64 adds integers exactly while every partial sum stays below this.
_EXACT_FLOAT_SUM = 1 << 53


def account_chunk(
    timestamps, sizes, outbound, verdicts: Sequence[Verdict],
    router: Optional[EdgeRouter] = None,
) -> FilterStats:
    """Account one chunk of final verdicts; return its per-direction tally.

    The one batched accounting stage.  Everything :meth:`EdgeRouter.forward`
    measures is a pure function of each packet's timestamp, size,
    direction and final verdict, so it runs after the kernel, once per
    chunk.  With a ``router`` it adds ``router.packets``, the offered and
    passed throughput bins and the inbound drop windows, exactly as
    per-packet ``forward`` calls would.  The returned
    :class:`FilterStats` counts the chunk's passed and dropped packets and
    bytes per direction (blocklist suppressions included) — what the
    filter's own statistics and the pipeline's inbound counts are built
    from.

    ``outbound`` holds truthy flags (a table's ``int8`` column or bools).
    The numpy path (``bincount``; ``np.unique`` keys where the chunk's
    bin span is sparse, so a long gap costs nothing per interval) and the
    stdlib path are exact and produce identical results, on any row
    order.
    """
    if router is not None:
        router.packets += len(verdicts)
    if not verdicts:
        return FilterStats()
    if _np_enabled() and len(verdicts) > _NUMPY_MIN_ROWS:
        sizes_np = _np.asarray(sizes, dtype=_np.int64)
        if int(sizes_np.sum()) < _EXACT_FLOAT_SUM:
            return _account_numpy(timestamps, sizes_np, outbound, verdicts, router)
    return _account_rows(timestamps, sizes, outbound, verdicts, router)


def _tally(counts, sums) -> FilterStats:
    """A FilterStats from per-category totals ordered (outbound passed,
    outbound dropped, inbound passed, inbound dropped)."""
    out_pass, out_drop, in_pass, in_drop = (int(count) for count in counts)
    out_pass_b, out_drop_b, in_pass_b, in_drop_b = (int(total) for total in sums)
    OUT, IN = Direction.OUTBOUND, Direction.INBOUND
    return FilterStats(
        passed={OUT: out_pass, IN: in_pass},
        dropped={OUT: out_drop, IN: in_drop},
        passed_bytes={OUT: out_pass_b, IN: in_pass_b},
        dropped_bytes={OUT: out_drop_b, IN: in_drop_b},
    )


def _account_rows(timestamps, sizes, outbound, verdicts, router) -> FilterStats:
    """Stdlib path: one pass that folds each run of equal bins into the
    router's dicts once (runs are long in a timestamp-sorted chunk;
    unsorted rows only make them shorter)."""
    PASS = Verdict.PASS
    if router is None:
        interval = window = math.inf  # one run each; nothing is binned
    else:
        interval = router.offered.interval
        window = router.inbound_drops.window
    totals = [0] * 8
    series = drops = None
    out_n = out_b = out_pass_n = out_pass_b = 0
    in_n = in_b = in_pass_n = in_pass_b = 0
    window_n = window_drop = 0
    for now, size, is_out, verdict in zip(timestamps, sizes, outbound, verdicts):
        key = int(now / interval)
        if key != series:
            if series is not None:
                _fold_series(router, series, totals, out_n, out_b, out_pass_n,
                             out_pass_b, in_n, in_b, in_pass_n, in_pass_b)
            series = key
            out_n = out_b = out_pass_n = out_pass_b = 0
            in_n = in_b = in_pass_n = in_pass_b = 0
        if is_out:
            out_n += 1
            out_b += size
            if verdict is PASS:
                out_pass_n += 1
                out_pass_b += size
            continue
        in_n += 1
        in_b += size
        key = int(now / window)
        if key != drops:
            if drops is not None:
                _fold_window(router, drops, window_n, window_drop)
            drops = key
            window_n = window_drop = 0
        window_n += 1
        if verdict is PASS:
            in_pass_n += 1
            in_pass_b += size
        else:
            window_drop += 1
    _fold_series(router, series, totals, out_n, out_b, out_pass_n, out_pass_b,
                 in_n, in_b, in_pass_n, in_pass_b)
    if drops is not None:
        _fold_window(router, drops, window_n, window_drop)
    out_n, out_b, out_pass_n, out_pass_b, in_n, in_b, in_pass_n, in_pass_b = totals
    return _tally(
        (out_pass_n, out_n - out_pass_n, in_pass_n, in_n - in_pass_n),
        (out_pass_b, out_b - out_pass_b, in_pass_b, in_b - in_pass_b),
    )


def _fold_series(router, key, totals, *run) -> None:
    """Add one run of a series bin: ``run`` is (outbound packets, bytes,
    passed packets, passed bytes, then the same inbound)."""
    for position, value in enumerate(run):
        totals[position] += value
    if router is None:
        return
    out_n, out_b, out_pass_n, out_pass_b, in_n, in_b, in_pass_n, in_pass_b = run
    OUT, IN = Direction.OUTBOUND, Direction.INBOUND
    offered, passed = router.offered._bins, router.passed._bins
    # An entry exists once a packet landed in the bin, even a 0-byte one.
    for bins, count, total in (
        (offered[OUT], out_n, out_b), (passed[OUT], out_pass_n, out_pass_b),
        (offered[IN], in_n, in_b), (passed[IN], in_pass_n, in_pass_b),
    ):
        if count:
            bins[key] = bins.get(key, 0) + total


def _fold_window(router, key, packets: int, dropped: int) -> None:
    if router is None:
        return
    sampler = router.inbound_drops
    sampler._packets[key] = sampler._packets.get(key, 0) + packets
    if dropped:
        sampler._dropped[key] = sampler._dropped.get(key, 0) + dropped


def _account_numpy(timestamps, sizes, outbound, verdicts, router) -> FilterStats:
    """numpy path: every packet gets a category (outbound passed,
    outbound dropped, inbound passed, inbound dropped); one ``bincount``
    per measurement over ``bin * 4 + category``.  Byte sums are float64,
    exact because the caller checked the chunk's total is below 2**53."""
    np = _np
    passed = np.frombuffer(
        bytearray(map(is_, verdicts, repeat(Verdict.PASS))), dtype=np.bool_
    )
    inbound = np.asarray(outbound) == 0
    category = inbound * 2 + ~passed
    counts = np.bincount(category, minlength=4)
    sums = np.bincount(category, weights=sizes, minlength=4)
    if router is None:
        return _tally(counts, sums)
    timestamps = np.asarray(timestamps, dtype=np.float64)

    keys, rows = _bin_rows((timestamps / router.offered.interval).astype(np.int64))
    slots = rows * 4 + category
    bin_counts = np.bincount(slots, minlength=4 * len(keys)).reshape(-1, 4)
    bin_sums = np.bincount(slots, weights=sizes, minlength=4 * len(keys)).reshape(-1, 4)
    busy = np.flatnonzero(bin_counts.any(axis=1))
    OUT, IN = Direction.OUTBOUND, Direction.INBOUND
    offered, passed_bins = router.offered._bins, router.passed._bins
    offered_out, offered_in = offered[OUT], offered[IN]
    passed_out, passed_in = passed_bins[OUT], passed_bins[IN]
    for key, (op, od, ip, idr), (op_b, od_b, ip_b, id_b) in zip(
        keys[busy].tolist(), bin_counts[busy].tolist(),
        bin_sums[busy].astype(np.int64).tolist(),
    ):
        if op or od:
            offered_out[key] = offered_out.get(key, 0) + op_b + od_b
        if op:
            passed_out[key] = passed_out.get(key, 0) + op_b
        if ip or idr:
            offered_in[key] = offered_in.get(key, 0) + ip_b + id_b
        if ip:
            passed_in[key] = passed_in.get(key, 0) + ip_b

    if inbound.any():
        sampler = router.inbound_drops
        keys, rows = _bin_rows(
            (timestamps[inbound] / sampler.window).astype(np.int64)
        )
        slots = rows * 2 + ~passed[inbound]
        window_counts = np.bincount(slots, minlength=2 * len(keys)).reshape(-1, 2)
        busy = np.flatnonzero(window_counts.any(axis=1))
        window_packets, window_dropped = sampler._packets, sampler._dropped
        for key, (kept, dropped) in zip(
            keys[busy].tolist(), window_counts[busy].tolist()
        ):
            window_packets[key] = window_packets.get(key, 0) + kept + dropped
            if dropped:
                window_dropped[key] = window_dropped.get(key, 0) + dropped
    return _tally(counts, sums)


def _bin_rows(bins):
    """(bin keys, each row's index into them) for a non-empty int64 array.

    Dense spans index ``bins - min`` directly; a span more than twice the
    row count (a restart gap, a billion idle intervals) indexes the
    distinct keys instead, so no slot is allocated per empty interval.
    """
    low = int(bins.min())
    span = int(bins.max()) - low + 1
    if span <= 2 * len(bins):
        return _np.arange(low, low + span, dtype=_np.int64), bins - low
    return _np.unique(bins, return_inverse=True)
