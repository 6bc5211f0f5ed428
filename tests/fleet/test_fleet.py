"""Tests for the fleet plane (repro.fleet): spec mirroring, supervised
daemons, and the fleet-vs-offline exactness invariant under disruption.

The integration tests spawn real ``repro serve`` subprocesses, so they
use a small trace and few shards; the invariant they hold is the PR's
acceptance bar — a fleet's merged fingerprint and blocklist are
bit-identical to the offline partitioned replay, including across a
mid-trace crash-kill and a rolling restart.
"""

import argparse
import json
import os
import subprocess

import pytest

from repro.filters.base import Verdict
from repro.fleet import (
    FleetError,
    FleetSupervisor,
    ShardDaemon,
    ShardFilterSpec,
    offline_reference,
)
from repro.fleet.supervisor import MANIFEST_NAME
from repro.shard.plan import HashShardPlan, SubnetShardPlan, plan_from_spec
from repro.workload import TraceConfig, TraceGenerator


def trace_table(duration=10.0, rate=6.0, seed=5):
    return TraceGenerator(
        TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    ).table()


def chunks_of(table, size=512):
    return [table.slice(start, min(start + size, len(table)))
            for start in range(0, len(table), size)]


def red_spec():
    return ShardFilterSpec(size_bits=12, vectors=3, hashes=2,
                           low_mbps=0.1, high_mbps=1.0)


class TestShardFilterSpec:
    def test_round_trip(self):
        spec = ShardFilterSpec(size_bits=14, hole_punching=True,
                               low_mbps=0.5, high_mbps=2.0,
                               use_blocklist=False)
        assert ShardFilterSpec.from_spec(spec.as_spec()) == spec

    def test_serve_args_mirror_build_filter(self):
        """serve_args fed through the CLI's own filter builder must
        produce the same filter build_filter constructs in-process."""
        from repro.cli import _build_serve_filter, build_parser

        for spec in (ShardFilterSpec(size_bits=12),
                     red_spec(),
                     ShardFilterSpec(size_bits=12, hole_punching=True)):
            parser = build_parser()
            args = parser.parse_args(["serve"] + spec.serve_args())
            via_cli, _ = _build_serve_filter(args)
            direct = spec.build_filter()
            assert via_cli.snapshot() == direct.snapshot()
            assert args.no_blocklist is (not spec.use_blocklist)

    def test_no_blocklist_arg(self):
        assert "--no-blocklist" in ShardFilterSpec(
            use_blocklist=False).serve_args()
        assert "--no-blocklist" not in ShardFilterSpec().serve_args()


class TestFleetIntegration:
    def test_clean_fleet_matches_offline(self, tmp_path):
        plan = HashShardPlan(2, seed=3)
        spec = red_spec()
        table = trace_table(duration=8.0)
        supervisor = FleetSupervisor(plan, str(tmp_path), spec=spec,
                                     snapshot_every=0)
        try:
            supervisor.launch()

            manifest = json.loads(
                (tmp_path / MANIFEST_NAME).read_text()
            )
            assert len(manifest["shards"]) == 2
            rebuilt = plan_from_spec(manifest["plan"])
            assert isinstance(rebuilt, HashShardPlan)
            assert all(s["status"] in ("running", "draining")
                       for s in supervisor.ping()["shards"])
            # Each lane's boot time (spawn to ready line) and restart
            # count, in the manifest, ping() and stats().
            for shard in manifest["shards"]:
                assert shard["restarts"] == 0 and shard["boot_s"] > 0
            for shard in supervisor.ping()["shards"]:
                assert shard["restarts"] == 0 and shard["boot_s"] > 0
            for shard in supervisor.stats()["shards"].values():
                assert shard["restarts"] == 0 and shard["boot_s"] > 0

            supervisor.feed(chunks_of(table))
            result = supervisor.drain()
        finally:
            supervisor.stop()

        reference = offline_reference(table, plan, spec)
        assert result.packets == len(table) == reference.packets
        assert result.inbound_dropped == reference.inbound_dropped
        assert result.restarts == 0
        assert result.fingerprint == reference.fingerprint
        assert result.blocked == dict(reference.router.blocklist._blocked)

    def test_disrupted_fleet_stays_exact(self, tmp_path):
        """Crash-kill one shard and roll-restart the fleet mid-trace;
        the merged verdict must not move a bit."""
        from repro.net.inet import parse_ipv4

        plan = SubnetShardPlan.from_cidr(parse_ipv4("10.1.0.0"), 16,
                                         shard_bits=1)
        spec = red_spec()
        table = trace_table(duration=10.0, seed=9)
        chunks = chunks_of(table)
        assert len(chunks) >= 4
        supervisor = FleetSupervisor(plan, str(tmp_path), spec=spec,
                                     snapshot_every=2)
        try:
            supervisor.launch()
            supervisor.feed(chunks[:len(chunks) // 2])
            supervisor.daemons[1].kill()  # crash, recovered on next send
            supervisor.rolling_restart()
            supervisor.feed(chunks[len(chunks) // 2:])
            result = supervisor.drain()
        finally:
            supervisor.stop()

        # The killed shard recovered once and every lane rolled once.
        assert result.restarts >= plan.lanes
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert sum(s["restarts"] for s in manifest["shards"]) == result.restarts
        assert all(s["boot_s"] > 0 for s in manifest["shards"])
        reference = offline_reference(table, plan, spec)
        assert result.packets == reference.packets
        assert result.fingerprint == reference.fingerprint
        assert result.blocked == dict(reference.router.blocklist._blocked)

    def test_boot_failure_reports_log_tail(self, tmp_path):
        # An argv the child's parser rejects: the daemon dies on boot
        # and the supervisor surfaces its stderr instead of hanging.
        daemon = ShardDaemon(0, "bad", str(tmp_path),
                             ["--size-bits", "not-a-number"],
                             boot_timeout=10.0)
        with pytest.raises(FleetError, match="exited during boot"):
            daemon.launch()
        assert daemon.process.poll() is not None

    def test_lingering_shard_takes_crash_path(self, tmp_path, monkeypatch):
        """A shard that acknowledges the rolling restart's shutdown but
        does not exit in time is killed and relaunched warm — the rest
        of the fleet still rolls, and the verdict does not move."""
        plan = HashShardPlan(2, seed=3)
        spec = red_spec()
        table = trace_table(duration=8.0)
        chunks = chunks_of(table)
        real_wait = ShardDaemon.wait
        lingered = []

        def wait_once(daemon, timeout=None):
            if not lingered:
                lingered.append(daemon.lane)
                raise subprocess.TimeoutExpired("repro serve", timeout)
            return real_wait(daemon, timeout)

        monkeypatch.setattr(ShardDaemon, "wait", wait_once)
        supervisor = FleetSupervisor(plan, str(tmp_path), spec=spec,
                                     snapshot_every=2)
        try:
            supervisor.launch()
            supervisor.feed(chunks[:len(chunks) // 2])
            supervisor.rolling_restart()
            supervisor.feed(chunks[len(chunks) // 2:])
            result = supervisor.drain()
        finally:
            supervisor.stop()

        assert lingered == [0]
        assert result.restarts == plan.lanes
        reference = offline_reference(table, plan, spec)
        assert result.packets == reference.packets
        assert result.fingerprint == reference.fingerprint
        assert result.blocked == dict(reference.router.blocklist._blocked)

    def test_shard_lingering_after_drain_fails_with_log_tail(
            self, tmp_path, monkeypatch):
        def never_exits(daemon, timeout=None):
            raise subprocess.TimeoutExpired("repro serve", timeout)

        supervisor = FleetSupervisor(HashShardPlan(2, seed=3), str(tmp_path),
                                     spec=red_spec(), snapshot_every=0)
        try:
            supervisor.launch()
            supervisor.feed(chunks_of(trace_table(duration=4.0)))
            monkeypatch.setattr(ShardDaemon, "wait", never_exits)
            with pytest.raises(FleetError, match="did not exit after draining"):
                supervisor.drain()
        finally:
            supervisor.stop()
        assert not any(daemon.alive for daemon in supervisor.daemons)
