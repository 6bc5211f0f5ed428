"""Recompute the pinned references in ``pins.json``.

For the default and the held-out seed of ``config.json``, every
workload's reference output is computed once on the per-packet path
(``SequentialBackend``; the partitioned replay with ``batched=False``
for the fleet; the swarm is per-packet by construction).  ``run.py``
checks each run on a pinned seed against these values, so a later
change can be re-checked on a seed that was not used while it was
written.  Takes a few minutes; usage, from the repository root::

    python3 perfbench/pin.py [--workload swarm-evasion]
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import CONFIG, PINS_PATH, use_source_tree
from run import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(
        WORKLOADS), help="recompute only this workload's pins "
        "(repeatable; default: all)")
    args = parser.parse_args(argv)
    use_source_tree()

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    for seed in (CONFIG["default_seed"], CONFIG["heldout_seed"]):
        for workload in args.workload or sorted(WORKLOADS):
            module = importlib.import_module(WORKLOADS[workload][0])
            pins.setdefault(workload, {})[str(seed)] = module.reference(
                seed, sequential=True)
        print(f"seed {seed} pinned", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
