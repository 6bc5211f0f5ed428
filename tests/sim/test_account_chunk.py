"""The batched accounting stage against per-packet recording, any row order.

:func:`repro.sim.router.account_chunk` folds runs of equal bins (stdlib)
or bincounts them (numpy); both must equal ``ThroughputSeries.record`` /
``DropRateSampler.record`` / ``FilterStats.account`` per row — also on
shuffled rows, sparse spans and zero-byte packets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.table as table_mod
from repro.filters.base import AcceptAllFilter, FilterStats, Verdict
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Direction, Packet, SocketPair
from repro.sim.router import EdgeRouter, account_chunk

PAIR = SocketPair(IPPROTO_TCP, 1, 2, 3, 4)

def rows_at(ticks):
    """(tick, bytes, outbound?, passed?) rows; a tick is 0.25 s."""
    return st.tuples(ticks, st.sampled_from((0, 1, 40, 1500)), st.booleans(),
                     st.booleans())


#: Dense rows, and rows a billion ticks later (a sparse bin span).
ROW = rows_at(st.integers(0, 40))
FAR_ROW = rows_at(st.sampled_from((10 ** 9, 4 * 10 ** 9)))


def reference(rows):
    router = EdgeRouter(AcceptAllFilter(), throughput_interval=0.5,
                        drop_window=2.0)
    tally = FilterStats()
    for tick, size, outbound, passed in rows:
        packet = Packet(tick * 0.25, PAIR, size=size, direction=(
            Direction.OUTBOUND if outbound else Direction.INBOUND))
        verdict = Verdict.PASS if passed else Verdict.DROP
        router.packets += 1
        router.offered.record(packet)
        if not outbound:
            router.inbound_drops.record(packet.timestamp, not passed)
        if passed:
            router.passed.record(packet)
        tally.account(packet, verdict)
    return router, tally


def state(router):
    return (router.packets, router.offered.snapshot(), router.passed.snapshot(),
            router.inbound_drops.snapshot())


@pytest.mark.parametrize("path", ["numpy", "stdlib"])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, max_size=60), repeat=st.integers(1, 6),
       far=st.lists(FAR_ROW, max_size=2),
       order=st.randoms(use_true_random=False))
def test_stage_matches_per_packet_recording(path, rows, repeat, far, order):
    if path == "numpy" and not table_mod.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    # Long enough for the numpy path; sorted as a replay chunk is, then
    # shuffled below.
    rows = sorted(rows * repeat + far)
    want_router, want_tally = reference(rows)
    saved = table_mod._use_numpy
    table_mod._use_numpy = path == "numpy"
    try:
        for shuffled in (False, True):
            if shuffled:
                order.shuffle(rows)
            router = EdgeRouter(AcceptAllFilter(), throughput_interval=0.5,
                                drop_window=2.0)
            tally = account_chunk(
                [tick * 0.25 for tick, _, _, _ in rows],
                [size for _, size, _, _ in rows],
                [outbound for _, _, outbound, _ in rows],
                [Verdict.PASS if passed else Verdict.DROP
                 for _, _, _, passed in rows],
                router,
            )
            assert state(router) == state(want_router)
            assert tally.snapshot() == want_tally.snapshot()
    finally:
        table_mod._use_numpy = saved
