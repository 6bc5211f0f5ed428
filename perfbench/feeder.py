"""The serve-socket load generator: a separate process that sends frames.

It synthesises the trace and encodes every frame (4096-packet tables,
binary codec with pool deltas) before it reports ready, so no synthesis
or encoding happens while the service is timed.  Then, for each JSON
command line on stdin it connects to the service's unix socket and sends
every frame:

* ``{"rate": null}`` sends flat out; the service's backpressure sets
  the pace;
* ``{"rate": R}`` sends frame ``i`` when it is due, at
  ``t0 + packets_before_i / R``, whether or not the service keeps up
  (open loop).

After each pass it prints one JSON line: ``t0`` and every frame's actual
send time, on the host's monotonic clock (shared with the parent).
Run by ``perfbench/run.py``; usage::

    python3 perfbench/feeder.py --seed 1 --packets 200000 --socket PATH
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time

from common import (
    clock,
    sized_chunks,
    sized_duration,
    use_source_tree,
)


def prepare(seed: int, packets: int):
    from repro.net.stream import TableEncoder

    encoder = TableEncoder()
    chunks = sized_chunks(seed, packets, sized_duration(seed, packets))
    return ([encoder.encode(chunk) for chunk in chunks],
            [len(chunk) for chunk in chunks])


def send_pass(path: str, frames, sizes, rate) -> dict:
    from repro.net.stream import write_frame

    sock = socket.socket(socket.AF_UNIX)
    sock.connect(path)
    stream = sock.makefile("wb")
    sent = []
    before = 0
    t0 = clock()
    try:
        for frame, size in zip(frames, sizes):
            if rate:
                delay = t0 + before / rate - clock()
                if delay > 0:
                    time.sleep(delay)
            sent.append(clock())
            write_frame(stream, frame)
            before += size
    finally:
        stream.close()
        sock.close()
    return {"t0": t0, "sent": sent}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--packets", type=int, required=True)
    parser.add_argument("--socket", required=True)
    args = parser.parse_args()
    use_source_tree()

    frames, sizes = prepare(args.seed, args.packets)
    print(json.dumps({"frames": len(frames), "packets": sum(sizes),
                      "bytes": sum(len(frame) for frame in frames),
                      "sizes": sizes}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("quit"):
            break
        print(json.dumps(send_pass(args.socket, frames, sizes,
                                   command.get("rate"))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
