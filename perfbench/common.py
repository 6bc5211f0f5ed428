"""Shared pieces of the production-path benchmark: paths, statistics,
the paper's filter configuration, digests and the environment stamp."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run artefacts (span files, per-run reports, fleet work dirs), relative
#: to the checkout root so unix-socket paths stay short.
OUT = Path(".perfbench_out")
CONFIG = json.loads((BENCH_DIR / "config.json").read_text())
PINS_PATH = BENCH_DIR / "pins.json"

#: Cross-process clock: CLOCK_MONOTONIC on Linux, shared by the feeder.
clock = time.monotonic

#: The paper's Figure-8 bitmap: {4 x 2^20} bits, m = 3, dt = 5 s.
PAPER_BITMAP = dict(size=2 ** 20, vectors=4, hashes=3, rotate_interval=5.0)
#: Uplink thresholds (Mbps) between which the RED controller raises P_d
#: from 0 to 1 (Eq. 1).
RED_BAND_MBPS = (0.02, 0.1)
#: Synthetic campus trace: 16 connection arrivals/s, default (paper) mix.
CONNECTION_RATE = 16.0
CHUNK = 4096


def use_source_tree() -> None:
    """Import ``repro`` from the checkout and let child processes do so."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    parts = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


def trace_config(duration: float, seed: int):
    from repro.workload.generator import TraceConfig

    return TraceConfig(duration=duration, connection_rate=CONNECTION_RATE,
                       seed=seed)


def paper_bitmap(red: bool = True):
    """The paper's bitmap; with ``red``, P_d follows Eq. 1 between the
    configured uplink thresholds (the RED band)."""
    from repro.core.bitmap_filter import BitmapFilterConfig
    from repro.filters.bitmap import BitmapPacketFilter
    from repro.filters.policy import DropController

    controller = (
        DropController.red_mbps(*RED_BAND_MBPS) if red else None
    )
    return BitmapPacketFilter(BitmapFilterConfig(**PAPER_BITMAP), controller)


# -- statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); an infinite
    sample (an operation that never completed) propagates."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if ordered[high] == math.inf:
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- digests ------------------------------------------------------------


def sha256_json(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def blocked_digest(blocked: Optional[Dict]) -> Optional[str]:
    """Order-independent digest of a blocked-connection table."""
    if blocked is None:
        return None
    rows = sorted((tuple(pair), stamp) for pair, stamp in blocked.items())
    return sha256_json(rows)


def stats_doc(stats) -> dict:
    """A :class:`FilterStats` as plain JSON (direction names as keys)."""
    return {
        field: {direction.name: count
                for direction, count in getattr(stats, field).items()}
        for field in ("passed", "dropped", "passed_bytes", "dropped_bytes")
    }


def replay_summary(result, packet_filter) -> dict:
    """What an oracle compares for one replay: counts, filter stats,
    blocklist contents and (when recorded) the verdict fingerprint."""
    blocklist = result.router.blocklist
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "stats": stats_doc(packet_filter.stats),
        "blocked": blocked_digest(
            blocklist._blocked if blocklist is not None else None
        ),
        "fingerprint": result.fingerprint,
    }


def diff_summaries(label: str, got: dict, want: dict,
                   keys: Optional[Iterable[str]] = None) -> List[str]:
    """Mismatch messages for the keys both summaries should agree on."""
    problems = []
    for key in keys if keys is not None else want:
        if want.get(key) is None and key == "fingerprint":
            continue
        if got.get(key) != want.get(key):
            problems.append(
                f"{label}: {key} {got.get(key)!r} != expected {want.get(key)!r}"
            )
    return problems


# -- environment ----------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies the
    program under test where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit() or "unknown (checkout has no git metadata)",
        "source_sha256": source_digest(),
        "transport": "unix-domain sockets on one host (loopback), "
                     "not a network link",
        "platform": platform.platform(),
    }


# -- one run's measurements -------------------------------------------------


class Recorder:
    """Samples, counts and oracle outputs of one measured window."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.ops = 0
        self.attempted = 0
        #: One oracle summary per operation group (job, phase, rep, run).
        self.outputs: List = []
        self.notes: Dict[str, str] = {}
        self.peak_rss_mb = 0.0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_rate(self, packets: int, seconds: float) -> None:
        """One operation's adjudicated packets over its wall time."""
        self.add("pkts_per_s", packets / seconds)
        self.add("op_packets", packets)
        self.add("op_seconds", seconds)

    def get(self, name: str) -> List[float]:
        return self.samples.get(name, [])

    def common_end_to_end(self) -> dict:
        """The end-to-end metrics every workload reports.

        The host's speed flips between a fast and a slow mode every few
        seconds with its neighbours' load (1.7x on the 2-vCPU host this
        was built on), and the share of each mode moves from run to run.
        A median or a low quantile of per-operation rates lands on one
        mode or the other; the rate over the whole run (packets over the
        time the operations took) moves in proportion to the share.
        Latency is reported at p95; its median is a per-layer figure.
        """
        seconds = sum(self.get("op_seconds"))
        return {
            "pkts_per_s": sum(self.get("op_packets")) / seconds
            if seconds else 0.0,
            "setup_s": median(self.get("setup_s")),
            "peak_rss_mb": self.peak_rss_mb,
            "latency_p95_ms": percentile(self.get("latency_ms"), 95),
        }


class Workload:
    """One named workload.  ``start`` prepares the load outside every
    timed interval, ``measure`` repeats ``operation`` until the run's
    time is up, and ``check`` compares the recorded outputs with the
    oracle."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self) -> None:
        """Prepare the load (trace synthesis, feeder start)."""

    def close(self) -> None:
        """Stop whatever ``start`` started."""

    def instrument(self, rec: Recorder, tracer) -> list:
        """Patch timing wrappers in for one measurement; returns the
        undo steps."""
        return []

    def operation(self, rec: Recorder, tracer) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Recorder:
        rec = Recorder()
        undo = self.instrument(rec, tracer)
        try:
            deadline = clock() + seconds
            while rec.ops == 0 or clock() < deadline:
                self.operation(rec, tracer)
        finally:
            for step in reversed(undo):
                step()
        return rec

    def end_to_end(self, rec: Recorder) -> dict:
        return rec.common_end_to_end()


def pinned(workload: str, seed: int) -> Optional[dict]:
    """The reference pinned for ``seed`` (computed once with the
    per-packet ``SequentialBackend`` by ``perfbench/pin.py``), if any."""
    if not PINS_PATH.is_file():
        return None
    pins = json.loads(PINS_PATH.read_text())
    return pins.get(workload, {}).get(str(seed))


# -- fixed-size inputs ------------------------------------------------------


def sized_duration(seed: int, packets: int) -> float:
    """Trace seconds whose synthetic trace holds at least ``packets``
    packets, so every seed feeds the same amount of work."""
    from repro.workload.generator import TraceGenerator

    duration = packets / 1000.0
    while True:
        produced = sum(
            len(chunk) for chunk in
            TraceGenerator(trace_config(duration, seed)).iter_tables(65536)
        )
        if produced >= packets:
            return duration
        duration *= 1.05 * packets / max(produced, 1)


def sized_chunks(seed: int, packets: int, duration: float):
    """The first ``packets`` packets of the trace as ``CHUNK``-row tables
    that share one growing pool, as a live feed would carry them."""
    from repro.workload.generator import TraceGenerator

    chunks, total = [], 0
    for chunk in TraceGenerator(trace_config(duration, seed)).iter_tables(CHUNK):
        if total + len(chunk) >= packets:
            chunks.append(chunk.slice(0, packets - total))
            return chunks
        chunks.append(chunk)
        total += len(chunk)
    raise ValueError(f"trace holds fewer than {packets} packets")
