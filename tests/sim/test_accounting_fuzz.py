"""Boundary fuzzing for batched accounting: every kernel vs ``forward()``.

Hypothesis builds short traces on a dyadic timestamp grid (every grid
point is an exact float) whose quantum divides every timer in play, so
packets land *exactly* on bitmap/counting rotations, throughput-series
bins, drop-rate windows, SPI flow-table GC and blocklist GC boundaries.
Traces carry duplicate timestamps, zero-byte packets, TCP open/close
flags, fractional ``P_d`` and a short blocklist retention, and are cut
into random chunks (empty chunks included).

Each registered kernel replays the trace three ways through a
:class:`~repro.sim.pipeline.ReplayPipeline` — per packet (the
``EdgeRouter.forward`` reference), chunk-wise through ``process_table``
and chunk-wise through ``process_batch`` — with numpy on and off, and all
three must agree on verdicts, pipeline counts, ``router.packets``,
``FilterStats``, offered/passed bins, drop windows, blocklist contents,
suppressed counters, filter state and RNG end state.
"""

import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.net.table as table_mod
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters.base import SnapshotUnsupported
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP, parse_ipv4
from repro.net.packet import Direction, Packet, SocketPair
from repro.net.table import PacketTable
from repro.sim.kernels import KERNELS
from repro.sim.pipeline import PipelineConfig, ReplayPipeline
from repro.sim.router import EdgeRouter

#: Grid quantum: a power of two, so ``k * GRID`` is exact for every k and
#: divides every interval below.
GRID = 0.25
THROUGHPUT_INTERVAL = 0.5
DROP_WINDOW = 2.0
ROTATE_INTERVAL = 1.0
SPI_GC = 1.5
SPI_IDLE = 3.0
SPI_TIME_WAIT = 0.75
BLOCK_RETENTION = 2.5
BLOCK_GC = 1.25

SYN, FIN, RST, ACK = 0x02, 0x01, 0x04, 0x10
FLAG_CHOICES = (0, SYN, SYN | ACK, ACK, FIN | ACK, RST)

CLIENTS = [parse_ipv4(f"10.1.0.{host}") for host in (5, 9)]
REMOTES = [parse_ipv4(address) for address in ("203.0.113.7", "198.51.100.23")]
#: Outbound-oriented flows; inbound packets use the inverse pair.
FLOWS = [
    SocketPair(protocol, client, 3000 + index, remote, 80 + index)
    for index, (protocol, client, remote) in enumerate(
        (protocol, client, remote)
        for protocol in (IPPROTO_TCP, IPPROTO_UDP)
        for client in CLIENTS
        for remote in REMOTES
    )
]


def half_pd() -> DropController:
    """A fractional static P_d: every miss consumes one draw."""
    return DropController(policy=StaticDropPolicy(0.5))


def small_bitmap(rotate_interval: float = ROTATE_INTERVAL) -> BitmapFilterConfig:
    return BitmapFilterConfig(size=2 ** 10, vectors=3, hashes=2,
                              rotate_interval=rotate_interval)


def spi(seed=7):
    return SPIFilter(idle_timeout=SPI_IDLE, time_wait=SPI_TIME_WAIT,
                     drop_controller=half_pd(), rng=random.Random(seed),
                     gc_interval=SPI_GC)


def red_policer(seed=7, direction=Direction.OUTBOUND):
    # Thresholds inside the trace's offered load, so P_d is fractional.
    return RedPolicerFilter.mbps(0.002, 0.03, rng=random.Random(seed),
                                 direction=direction)


def token_bucket(direction=Direction.OUTBOUND):
    return TokenBucketFilter(rate_mbps=0.01, burst_bytes=1500.0,
                             direction=direction)


# The stand-alone policers guard the inbound side, so their drops feed
# the blocklist; the chain's members police the uplink.


FACTORIES = {
    "bitmap": lambda rotate=ROTATE_INTERVAL: BitmapPacketFilter(
        small_bitmap(rotate), drop_controller=half_pd(), rng=random.Random(7)),
    "spi": lambda rotate=ROTATE_INTERVAL: spi(),
    "counting-bitmap": lambda rotate=ROTATE_INTERVAL: CountingBitmapFilter(
        small_bitmap(rotate), drop_controller=half_pd(), rng=random.Random(7),
        half_close_timeout=1.0),
    "token-bucket": lambda rotate=ROTATE_INTERVAL: token_bucket(Direction.INBOUND),
    "red-policer": lambda rotate=ROTATE_INTERVAL: red_policer(
        direction=Direction.INBOUND),
    "chain": lambda rotate=ROTATE_INTERVAL: FilterChain(
        [spi(3), token_bucket(), red_policer(5)]),
}


def test_every_registered_kernel_is_fuzzed():
    assert {type(make()) for make in FACTORIES.values()} == set(KERNELS)


@pytest.fixture(params=["numpy", "stdlib"])
def numpy_path(request):
    """Run the test body with the numpy column path on or off."""
    if request.param == "numpy" and not table_mod.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    saved = table_mod._use_numpy
    table_mod._use_numpy = request.param == "numpy"
    yield request.param
    table_mod._use_numpy = saved


# ----------------------------------------------------------------------
# Trace construction
# ----------------------------------------------------------------------

STEPS = (0, 0, 1, 1, 1, 2, 3, 4, 6, 8)  # grid steps; 0 = same timestamp
SIZES = (0, 40, 64, 576, 1500)          # bytes; a 0-byte packet still bins


@st.composite
def traces(draw):
    """(packets, chunk bounds).  Hypothesis draws the length, the seed of
    the event stream and the cut points, so traces are long enough for
    the columnar paths (small lists dominate a drawn-element strategy)."""
    count = draw(st.integers(1, 400))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    cuts = draw(st.lists(st.integers(0, count), max_size=6))
    packets = []
    tick = draw(st.integers(0, 16))
    for _ in range(count):
        tick += rng.choice(STEPS)
        pair = FLOWS[rng.randrange(len(FLOWS))]
        outbound = rng.random() < 0.5
        flags = rng.choice(FLAG_CHOICES) if pair.protocol == IPPROTO_TCP else 0
        packets.append(Packet(
            tick * GRID, pair if outbound else pair.inverse,
            size=rng.choice(SIZES), flags=flags,
            direction=Direction.OUTBOUND if outbound else Direction.INBOUND,
        ))
    bounds = sorted({0, len(packets), *cuts})
    # A repeated cut point yields an empty chunk, which must be a no-op.
    if cuts:
        bounds.insert(1, bounds[0])
    return packets, list(zip(bounds, bounds[1:]))


def build_pipeline(flt, use_blocklist: bool) -> ReplayPipeline:
    pipeline = ReplayPipeline(PipelineConfig(
        packet_filter=flt, use_blocklist=False, record_fingerprint=True,
    ))
    pipeline.router = EdgeRouter(
        flt,
        blocklist=(BlockedConnectionStore(retention=BLOCK_RETENTION,
                                          gc_interval=BLOCK_GC)
                   if use_blocklist else None),
        throughput_interval=THROUGHPUT_INTERVAL,
        drop_window=DROP_WINDOW,
    )
    return pipeline


def rng_states(flt):
    if isinstance(flt, FilterChain):
        return [state for member in flt.filters for state in rng_states(member)]
    holder = getattr(flt, "core", flt)
    rng = getattr(holder, "_rng", None)
    return [] if rng is None else [rng.getstate()]


def filter_state(flt):
    """The filter's snapshot minus its drop controllers: a static ``P_d``
    never reads the uplink meter, so the fused loops skip that read and
    the meter's lazy eviction lags, which no later reading can observe."""
    try:
        return strip_controllers(flt.snapshot())
    except SnapshotUnsupported:  # pragma: no cover - every kernel snapshots
        return None


def strip_controllers(document):
    if isinstance(document, dict):
        return {key: strip_controllers(value) for key, value in document.items()
                if key != "controller"}
    if isinstance(document, list):
        return [strip_controllers(value) for value in document]
    return document


def router_state(router: EdgeRouter) -> dict:
    blocklist = router.blocklist
    return {
        "packets": router.packets,
        "filter_stats": router.filter.stats.snapshot(),
        "offered": router.offered.snapshot(),
        "passed": router.passed.snapshot(),
        "inbound_drops": router.inbound_drops.snapshot(),
        "blocked": None if blocklist is None else dict(blocklist._blocked),
        "blocklist_gc": None if blocklist is None else blocklist._next_gc,
        "suppressed": (None if blocklist is None else
                       (blocklist.suppressed_packets, blocklist.suppressed_bytes)),
        "filter": filter_state(router.filter),
        "rng": rng_states(router.filter),
    }


def pipeline_state(pipeline: ReplayPipeline) -> dict:
    return {
        "inbound": pipeline.inbound,
        "dropped": pipeline.dropped,
        "fingerprint": pipeline.fingerprint,
        **router_state(pipeline.router),
    }


def replay_three_ways(kind, use_blocklist, packets, chunks):
    reference = build_pipeline(FACTORIES[kind](), use_blocklist)
    expected = [reference.process(packet) for packet in packets]

    table = PacketTable.from_packets(packets)
    tabled = build_pipeline(FACTORIES[kind](), use_blocklist)
    table_verdicts = []
    for start, stop in chunks:
        table_verdicts += tabled.process_table(table.slice(start, stop))

    batched = build_pipeline(FACTORIES[kind](), use_blocklist)
    batch_verdicts = []
    for start, stop in chunks:
        batch_verdicts += batched.process_batch(packets[start:stop])

    assert table_verdicts == expected
    assert batch_verdicts == expected
    want = pipeline_state(reference)
    assert pipeline_state(tabled) == want
    assert pipeline_state(batched) == want


# ----------------------------------------------------------------------
# The fuzz matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("use_blocklist", [False, True],
                         ids=["no-blocklist", "blocklist"])
@pytest.mark.parametrize("kind", sorted(FACTORIES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(trace=traces())
def test_kernel_matches_forward_on_boundaries(kind, use_blocklist, numpy_path,
                                              trace):
    packets, chunks = trace
    replay_three_ways(kind, use_blocklist, packets, chunks)


# ----------------------------------------------------------------------
# Accounting edge cases
# ----------------------------------------------------------------------


def make_router(kind, use_blocklist=True, rotate=ROTATE_INTERVAL):
    return EdgeRouter(
        FACTORIES[kind](rotate),
        blocklist=(BlockedConnectionStore(retention=BLOCK_RETENTION,
                                          gc_interval=BLOCK_GC)
                   if use_blocklist else None),
        throughput_interval=THROUGHPUT_INTERVAL,
        drop_window=DROP_WINDOW,
    )


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_empty_chunk_is_a_no_op(kind, numpy_path):
    router = make_router(kind)
    before = router_state(router)
    assert router.process_table(PacketTable()) == []
    assert router.process_batch([]) == []
    assert router_state(router) == before


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_all_suppressed_chunk(kind, numpy_path):
    packets = []
    for position in range(96):
        pair = FLOWS[position % len(FLOWS)]
        outbound = position % 3 == 0
        packets.append(Packet(
            1.0 + position * GRID, pair if outbound else pair.inverse,
            size=40 * (position % 4),
            direction=Direction.OUTBOUND if outbound else Direction.INBOUND,
        ))
    routers = [make_router(kind) for _ in range(3)]
    for router in routers:
        for pair in FLOWS:
            router.blocklist.block(pair, 1.0)
    reference, tabled, batched = routers
    expected = [reference.forward(packet) for packet in packets]
    assert set(expected) == {expected[0]} and expected[0].name == "DROP"
    assert tabled.process_table(PacketTable.from_packets(packets)) == expected
    assert batched.process_batch(packets) == expected
    want = router_state(reference)
    assert want["suppressed"][0] == len(packets)
    assert router_state(tabled) == want
    assert router_state(batched) == want


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_billion_bin_gap_in_one_chunk(kind, numpy_path):
    # 0.0 and 1e9 in one chunk: 2e9 series intervals apart.  Bins must be
    # exact and nothing may be allocated per interval of the gap.  The
    # bitmap/counting rotation catch-up is O(gap / Δt) in the filter
    # itself, so those run with a Δt that keeps it to a few rotations.
    packets = []
    for timestamp in (0.0, 0.0, GRID, 1e9, 1e9, 1e9 + DROP_WINDOW):
        for pair, outbound in ((FLOWS[0], True), (FLOWS[0], False),
                               (FLOWS[5], False)):
            packets.append(Packet(
                timestamp, pair if outbound else pair.inverse, size=64,
                direction=Direction.OUTBOUND if outbound else Direction.INBOUND,
            ))
    packets *= 12  # over the columnar paths' small-chunk cut-over
    packets.sort(key=lambda packet: packet.timestamp)
    reference, tabled, batched = (make_router(kind, rotate=2.5e8)
                                  for _ in range(3))
    expected = [reference.forward(packet) for packet in packets]
    table = PacketTable.from_packets(packets)
    tracemalloc.start()
    try:
        assert tabled.process_table(table) == expected
        assert batched.process_batch(packets) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"accounting allocated {peak} bytes"
    want = router_state(reference)
    assert sorted(dict(want["offered"]["bins"]["outbound"])) == [0, 2_000_000_000, 2_000_000_004]
    assert router_state(tabled) == want
    assert router_state(batched) == want
