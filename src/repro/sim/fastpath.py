"""The bitmap filter's fused batched kernels.

The per-packet replay pipeline crosses four layers of Python dispatch
(``replay`` → ``EdgeRouter.forward`` → ``PacketFilter.process`` →
``BitmapFilter.filter``) and, worse, the int-backed :class:`BitVector`
pays O(N) big-int arithmetic per mark/test at the paper's N = 2^20.  The
two loops here decide a whole chunk in one pass over columnar arrays:

1. **Columnarize** — timestamps, direction flags, sizes and
   *precomputed* hash-index tuples (:meth:`HashFamily.indices_many`
   through a bounded :class:`HashIndexMemo` LRU, so repeated flows hash
   once).
2. **Byte-stage the bitmap** — the ``k`` vectors are staged as
   ``bytearray``s for the duration of the chunk; each mark/test is a few
   O(1) byte operations instead of megabit shifts.
3. **Rotate in line** — rotation boundaries are the only ordering
   constraint the bitmap imposes; the staging is refreshed when one
   passes.

Like every kernel in :mod:`repro.sim.kernels` they only *decide*: each
returns the chunk's verdicts (blocklist suppression interleaved, since a
drop blocks the connection's later packets) plus the suppressed drops,
and the router's accounting stage
(:func:`repro.sim.router.account_chunk`) does every measurement after.
:meth:`EdgeRouter.process_table` reaches :func:`process_table_fast`
through the kernel registry; :meth:`EdgeRouter.process_batch` reaches
:func:`process_packets_fast`, which keeps the memo's per-packet hit
counting of an object replay.  ``tests/sim/test_fastpath.py`` and
``tests/sim/test_accounting_fuzz.py`` hold both to the per-packet
reference: same verdicts, statistics, bits, blocklist and RNG draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.bitmap_filter import FieldMode
from repro.core.dropper import StaticDropPolicy
from repro.filters.base import FilterStats, Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.net.packet import Direction, Packet


def socket_key(
    pair, direction: Direction, hole_punching: bool
) -> Tuple[int, ...]:
    """The hash-input fields of a packet, as a plain tuple.

    Mirrors :meth:`BitmapFilter._key_fields` without constructing an
    intermediate inverse :class:`SocketPair`: inbound packets are inverted
    field-by-field, and in hole-punching mode the remote port is omitted.
    """
    if direction is Direction.INBOUND:
        if hole_punching:
            return (pair[0], pair[3], pair[4], pair[1])
        return (pair[0], pair[3], pair[4], pair[1], pair[2])
    if hole_punching:
        return (pair[0], pair[1], pair[2], pair[3])
    return tuple(pair)


@dataclass
class PacketColumns:
    """A packet stream decomposed into parallel (columnar) arrays.

    ``indices`` holds each packet's precomputed bitmap positions; repeated
    flows share one tuple object via the memo, so memory stays close to
    one machine word per packet for flow-repetitive traffic.  ``packets``
    keeps the originals for the parts of the pipeline that are inherently
    per-packet (blocklist suppression).
    """

    timestamps: List[float]
    outbound: List[bool]
    sizes: List[int]
    indices: List[Tuple[int, ...]]
    packets: List[Packet]

    def __len__(self) -> int:
        return len(self.packets)

    @classmethod
    def from_packets(
        cls, packets: Sequence[Packet], flt: BitmapPacketFilter
    ) -> "PacketColumns":
        """Columnarize ``packets`` for ``flt``'s hash family / field mode."""
        hole = flt.core.config.field_mode is FieldMode.HOLE_PUNCHING
        inbound = Direction.INBOUND
        timestamps: List[float] = []
        outbound: List[bool] = []
        sizes: List[int] = []
        keys: List[Tuple[int, ...]] = []
        for packet in packets:
            direction = packet.direction
            if direction is None:
                raise ValueError("packet has no direction set")
            timestamps.append(packet.timestamp)
            outbound.append(direction is not inbound)
            sizes.append(packet.size)
            keys.append(socket_key(packet.pair, direction, hole))
        return cls(
            timestamps=timestamps,
            outbound=outbound,
            sizes=sizes,
            indices=flt.hash_memo.get_many(keys),
            packets=list(packets),
        )


def suppressed_drops(packets: Sequence[int], nbytes: Sequence[int]) -> FilterStats:
    """A kernel's blocklist suppressions as drops the filter never saw.

    ``packets`` and ``nbytes`` are indexed by the outbound flag
    (``[inbound, outbound]``).
    """
    return FilterStats(
        dropped={Direction.OUTBOUND: packets[1], Direction.INBOUND: packets[0]},
        dropped_bytes={
            Direction.OUTBOUND: nbytes[1], Direction.INBOUND: nbytes[0],
        },
    )


def close_blocklist(blocklist, next_gc, supp_n, supp_b) -> None:
    """Write a kernel's inlined blocklist GC clock and suppression
    counters back to the store."""
    blocklist._next_gc = next_gc
    blocklist.suppressed_packets += supp_n[0] + supp_n[1]
    blocklist.suppressed_bytes += supp_b[0] + supp_b[1]


def process_packets_fast(
    flt: BitmapPacketFilter, columns: PacketColumns, blocklist
) -> Tuple[List[Verdict], FilterStats]:
    """The fused bitmap loop over a packet list's :class:`PacketColumns`.

    Decides what ``[router.forward(p) for p in packets]`` would for a
    router hosting ``flt`` with ``blocklist`` (None = no blocklist), with
    every per-packet decision preserved in order — blocklist suppression
    interleaves with marking (a blocked connection's outbound packets must
    not mark), so the loop is fused rather than staged.  Returns the
    verdicts and the suppressed drops (:func:`suppressed_drops`).
    """
    total = len(columns)
    verdicts: List[Verdict] = []
    supp_n = [0, 0]
    supp_b = [0, 0]
    if total == 0:
        return verdicts, suppressed_drops(supp_n, supp_b)

    PASS, DROP = Verdict.PASS, Verdict.DROP
    timestamps = columns.timestamps
    outbound_flags = columns.outbound
    sizes = columns.sizes
    indices_seq = columns.indices
    originals = columns.packets

    core = flt.core
    config = core.config
    k = config.vectors
    nbytes = (config.size + 7) // 8
    bufs = [bytearray(vector.to_bytes()) for vector in core.vectors]
    rng_random = core._rng.random

    controller = flt.drop_controller
    record_upload = controller.meter.record
    # A static policy's P_d ignores the measured rate, so the per-packet
    # ``rate_bps`` call (a pure read: its lazy eviction never changes any
    # later reading) is skipped and the constant hoisted out of the loop.
    static_p: Optional[float] = (
        controller.policy.probability(0.0)
        if isinstance(controller.policy, StaticDropPolicy)
        else None
    )
    probability_at = controller.probability
    suppress = blocklist.suppress if blocklist is not None else None

    marked = hits = misses = bitmap_dropped = 0
    append = verdicts.append
    next_rotation = core._next_rotation
    current = bufs[core.idx]

    for position in range(total):
        now = timestamps[position]
        is_outbound = outbound_flags[position]

        if suppress is not None and suppress(originals[position]):
            supp_n[is_outbound] += 1
            supp_b[is_outbound] += sizes[position]
            append(DROP)
            continue

        # Rotation boundary — rare; refreshes the chunk-local staging.
        if next_rotation is None or now >= next_rotation:
            vacated = core.idx
            ran = core.advance_to(now)
            if ran >= k:
                bufs = [bytearray(nbytes) for _ in range(k)]
            elif ran:
                for step in range(ran):
                    bufs[(vacated + step) % k] = bytearray(nbytes)
            next_rotation = core._next_rotation
            current = bufs[core.idx]

        if is_outbound:
            for index in indices_seq[position]:
                byte = index >> 3
                bit = 1 << (index & 7)
                for buf in bufs:
                    buf[byte] |= bit
            marked += 1
            record_upload(now, sizes[position])
            append(PASS)
            continue

        hit = True
        for index in indices_seq[position]:
            if not current[index >> 3] & (1 << (index & 7)):
                hit = False
                break
        if hit:
            hits += 1
            append(PASS)
            continue
        misses += 1
        probability = static_p if static_p is not None else probability_at(now)
        if probability >= 1.0 or rng_random() < probability:
            bitmap_dropped += 1
            if blocklist is not None:
                blocklist.block(originals[position].pair, now)
            append(DROP)
        else:
            append(PASS)

    for vector, buf in zip(core.vectors, bufs):
        vector._bits = int.from_bytes(buf, "little")
    core_stats = core.stats
    core_stats.outbound_marked += marked
    core_stats.inbound_hits += hits
    core_stats.inbound_misses += misses
    core_stats.inbound_dropped += bitmap_dropped
    return verdicts, suppressed_drops(supp_n, supp_b)


def process_table_fast(
    flt: BitmapPacketFilter, table, blocklist
) -> Tuple[List[Verdict], FilterStats]:
    """The fused bitmap loop over a :class:`~repro.net.table.PacketTable`.

    Decides exactly what :func:`process_packets_fast` does on
    ``table.to_packets()`` — verdicts, bitmap stats, blocklist contents
    and RNG consumption — without materialising a single
    :class:`Packet`.  Interned ``pair_ids`` unlock flow-level caching the
    object loop cannot afford:

    * each flow is hashed at most **once per direction per table**
      (:meth:`PacketTable.seen_directions` + :meth:`HashIndexMemo.get_many`)
      instead of once per packet — so the memo's hit counter measures
      cross-chunk flow reuse here, not per-packet repeats;
    * an outbound flow **marks once per rotation window** — marking is
      idempotent while no vector rotates, so repeats skip the k×m bit
      loop (stats still count every packet);
    * an inbound flow that tested *hit* stays a hit until the next
      rotation — bits are only ever set within a window — so repeats
      skip the probe loop; misses always re-test (an intervening mark
      may flip them) and hits never consume RNG, keeping the stream's
      draw order intact;
    * the blocklist's canonical pair is computed once per flow, and its
      GC clock is inlined to a float compare per packet.

    ``blocklist=None`` decides as a filter on its own (the filter-level
    ``process_batch`` and ``filter_table`` paths run this same loop).
    """
    total = len(table)
    verdicts: List[Verdict] = []
    supp_n = [0, 0]
    supp_b = [0, 0]
    if total == 0:
        return verdicts, suppressed_drops(supp_n, supp_b)

    # Per-flow hash indices: one key per (flow, direction) actually present.
    hole = flt.core.config.field_mode is FieldMode.HOLE_PUNCHING
    pairs = table.pairs
    seen = table.seen_directions()
    keys: List[Tuple[int, ...]] = []
    slots: List[int] = []  # pid << 1 | is_outbound
    for pid, bits in enumerate(seen):
        if not bits:
            continue
        pair = pairs[pid]
        if bits & 1:  # SEEN_OUTBOUND
            keys.append(socket_key(pair, Direction.OUTBOUND, hole))
            slots.append((pid << 1) | 1)
        if bits & 2:  # SEEN_INBOUND
            keys.append(socket_key(pair, Direction.INBOUND, hole))
            slots.append(pid << 1)
    idx_out: List[Tuple[int, ...]] = [()] * len(pairs)
    idx_in: List[Tuple[int, ...]] = [()] * len(pairs)
    for slot, indices in zip(slots, flt.hash_memo.get_many(keys)):
        if slot & 1:
            idx_out[slot >> 1] = indices
        else:
            idx_in[slot >> 1] = indices

    PASS, DROP = Verdict.PASS, Verdict.DROP

    core = flt.core
    config = core.config
    k = config.vectors
    nbytes = (config.size + 7) // 8
    bufs = [bytearray(vector.to_bytes()) for vector in core.vectors]
    rng_random = core._rng.random

    controller = flt.drop_controller
    record_upload = controller.meter.record
    static_p: Optional[float] = (
        controller.policy.probability(0.0)
        if isinstance(controller.policy, StaticDropPolicy)
        else None
    )
    probability_at = controller.probability

    if blocklist is not None:
        blocked = blocklist._blocked
        retention = blocklist.retention
        gc_interval = blocklist._gc_interval
        next_gc = blocklist._next_gc
        canon_cache: List[Optional[object]] = [None] * len(pairs)
    else:
        blocked = None

    marked = hits = misses = bitmap_dropped = 0

    append = verdicts.append
    next_rotation = core._next_rotation
    current = bufs[core.idx]

    # Rotation generation: flow caches are valid exactly while no vector
    # has rotated (bits only accumulate within a window).
    generation = 0
    marked_gen: dict = {}
    hit_gen: dict = {}
    marked_get = marked_gen.get
    hit_get = hit_gen.get

    for now, size, is_out, pid in zip(
        table.timestamps, table.sizes, table.outbound, table.pair_ids,
    ):
        if blocked is not None:
            # Inlined BlockedConnectionStore._maybe_gc / suppress_fields.
            if retention is not None:
                if next_gc is None:
                    next_gc = now + gc_interval
                elif now >= next_gc:
                    next_gc = now + gc_interval
                    horizon = now - retention
                    for stale in [
                        entry for entry, stamped in blocked.items()
                        if stamped < horizon
                    ]:
                        del blocked[stale]
            canon = canon_cache[pid]
            if canon is None:
                canon = canon_cache[pid] = pairs[pid].canonical
            stamped = blocked.get(canon)
            if stamped is not None:
                if retention is not None and now - stamped > retention:
                    del blocked[canon]
                else:
                    blocked[canon] = now
                    supp_n[is_out] += 1
                    supp_b[is_out] += size
                    append(DROP)
                    continue

        if next_rotation is None or now >= next_rotation:
            vacated = core.idx
            ran = core.advance_to(now)
            if ran >= k:
                bufs = [bytearray(nbytes) for _ in range(k)]
            elif ran:
                for step in range(ran):
                    bufs[(vacated + step) % k] = bytearray(nbytes)
            next_rotation = core._next_rotation
            current = bufs[core.idx]
            if ran:
                generation += 1

        if is_out:
            if marked_get(pid) != generation:
                marked_gen[pid] = generation
                for index in idx_out[pid]:
                    byte = index >> 3
                    bit = 1 << (index & 7)
                    for buf in bufs:
                        buf[byte] |= bit
            marked += 1
            record_upload(now, size)
            append(PASS)
            continue

        if hit_get(pid) == generation:
            hits += 1
            append(PASS)
            continue
        hit = True
        for index in idx_in[pid]:
            if not current[index >> 3] & (1 << (index & 7)):
                hit = False
                break
        if hit:
            hit_gen[pid] = generation
            hits += 1
            append(PASS)
            continue
        misses += 1
        probability = static_p if static_p is not None else probability_at(now)
        if probability >= 1.0 or rng_random() < probability:
            bitmap_dropped += 1
            if blocked is not None:
                canon = canon_cache[pid]
                if canon is None:
                    canon = canon_cache[pid] = pairs[pid].canonical
                blocked[canon] = now
            append(DROP)
        else:
            append(PASS)

    for vector, buf in zip(core.vectors, bufs):
        vector._bits = int.from_bytes(buf, "little")
    core_stats = core.stats
    core_stats.outbound_marked += marked
    core_stats.inbound_hits += hits
    core_stats.inbound_misses += misses
    core_stats.inbound_dropped += bitmap_dropped
    if blocklist is not None:
        close_blocklist(blocklist, next_gc, supp_n, supp_b)
    return verdicts, suppressed_drops(supp_n, supp_b)
