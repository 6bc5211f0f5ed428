"""One benchmark for the production path.

Runs one named workload for a fixed time with a given seed, checks every
output against an oracle that is never on the timed path, and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics that
``BENCHMARK.json`` lists.  With ``--trace 1`` the workload runs twice,
untraced and then with spans around calls into each layer, and the
metrics are the per-layer ones, including the tracing overhead.  Span
files and a full report land in ``.perfbench_out/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-socket --seed 1 --seconds 15 --trace 0

Exit status is 0 only when every oracle agreed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from common import (
    CONFIG,
    OUT,
    ROOT,
    environment,
    peak_rss_mb,
    percentile,
    use_source_tree,
)

WORKLOADS = {
    "fig8-offline": ("fig8_offline", "Fig8Offline"),
    "serve-socket": ("serve_socket", "ServeSocket"),
    "fleet-rolling": ("fleet_rolling", "FleetRolling"),
    "swarm-evasion": ("swarm_evasion", "SwarmEvasion"),
}
#: Per-operation self time per layer, from the traced run's spans.
LAYERS = ("workload", "net", "sim", "filters", "service", "shard", "fleet",
          "swarm")


def load_workload(name: str, seed: int):
    module_name, class_name = WORKLOADS[name]
    module = __import__(module_name)
    return getattr(module, class_name)(seed)


def parse_fingerprint(text: str) -> int:
    return int(text, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-fingerprint", type=parse_fingerprint,
                        help="require this bitmap verdict fingerprint "
                             "(the negative self-test passes a wrong one)")
    args = parser.parse_args(argv)

    use_source_tree()
    os.chdir(ROOT)
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    workload = load_workload(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        workload.start()
        plain = workload.measure(args.seconds)
        plain.peak_rss_mb = peak_rss_mb()
        recorders = [plain]
        if tracer is not None:
            traced = workload.measure(args.seconds, tracer)
            recorders.append(traced)
        failed, problems = workload.check(recorders, args.expect_fingerprint)
    finally:
        workload.close()

    attempted = sum(rec.attempted for rec in recorders)
    if problems and not failed:
        failed = attempted  # a reference disagreed: the whole run fails
    end_to_end = workload.end_to_end(plain)
    notes = dict(plain.notes)
    if tracer is None:
        wanted = spec["end_to_end"]
        values = end_to_end
    else:
        wanted = spec["per_layer"]
        values = per_layer(workload, traced, tracer, end_to_end)
        values["bench.error_rate"] = failed / attempted
        values["bench.latency_p50_ms"] = percentile(plain.get("latency_ms"), 50)
        notes.update(traced.notes)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            notes.setdefault(name, f"not exercised by {args.workload}; "
                                   "reported as 0")
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            notes[name] = f"{value} (an operation never completed)"
            value = 1e12 if value > 0 else -1e12
        metrics[name] = {"value": value, "unit": entry["unit"]}

    report = {"environment": env, "metrics": metrics, "notes": notes,
              "problems": problems, "attempted": attempted, "failed": failed,
              "samples": {name: sample_summary(series)
                          for name, series in plain.samples.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2))
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))
        (OUT / f"{stem}.self_s.json").write_text(
            json.dumps(tracer.self_times(), indent=2, sort_keys=True))

    print("environment: " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    for name, note in sorted(notes.items()):
        print(f"note {name}: {note}")
    for problem in problems:
        print(f"ORACLE MISMATCH: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def sample_summary(values) -> dict:
    """Count, quartiles and tails of one sample list (the first values
    verbatim, so a run's trajectory can be inspected)."""
    return {"n": len(values), "p5": percentile(values, 5),
            "p25": percentile(values, 25), "p50": percentile(values, 50),
            "p75": percentile(values, 75), "p95": percentile(values, 95),
            "first": values[:200]}


def per_layer(workload, traced, tracer, end_to_end) -> dict:
    values = workload.per_layer(traced, tracer)
    traced_rate = traced.common_end_to_end()["pkts_per_s"]
    values["bench.trace_overhead"] = (
        1.0 - traced_rate / end_to_end["pkts_per_s"]
        if end_to_end["pkts_per_s"] else 0.0
    )
    layers = tracer.layer_self_times()
    for layer in LAYERS:
        values[f"self_s.{layer}"] = layers.get(layer, 0.0) / max(1, traced.ops)
    return values


if __name__ == "__main__":
    sys.exit(main())
