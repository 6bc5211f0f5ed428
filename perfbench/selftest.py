"""Negative self-tests of the benchmark command.

1. A wrong expected bitmap verdict fingerprint must make ``run.py``
   exit non-zero and report ``"correct": false``.
2. In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``
   (no program source), ``run.py`` must exit non-zero without printing
   a result.
3. ``layers.json`` maps exactly the per-layer metrics of
   ``BENCHMARK.json``, each to a metric the benchmark reports.

Usage, from the repository root::

    python3 perfbench/selftest.py

Exit status 0 means every check behaved as required.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, OUT, ROOT

WRONG_FINGERPRINT = "0x1"


def run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def wrong_fingerprint_fails() -> list:
    failures = []
    for workload in ("fig8-offline", "swarm-evasion"):
        done = run(ROOT, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", "0",
                   "--expect-fingerprint", WRONG_FINGERPRINT)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode == 0 or result.get("correct") is not False:
            failures.append(f"{workload}: wrong fingerprint accepted "
                            f"(exit {done.returncode})")
    return failures


def bare_directory_fails() -> list:
    bare = ROOT / OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", "fig8-offline", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory produced a result (exit {done.returncode})"]
    return []


def layer_map_matches() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    targets = per_layer | {metric["name"] for metric in spec["end_to_end"]}
    failures = [f"layers.json lacks {name}"
                for name in sorted(per_layer - set(layers))]
    failures += [f"layers.json maps {name}, which BENCHMARK.json lacks"
                 for name in sorted(set(layers) - per_layer)]
    failures += [f"layers.json: {name} moves {entry['moves']!r}, which "
                 "the benchmark does not report"
                 for name, entry in sorted(layers.items())
                 if entry["moves"] is not None
                 and entry["moves"] not in targets]
    return failures


def main() -> int:
    failures = (layer_map_matches() + wrong_fingerprint_fails()
                + bare_directory_fails())
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("self-test passed: layer map matches; wrong fingerprint and "
              "missing source both exit non-zero")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
