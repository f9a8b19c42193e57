"""Round trip of one 32-byte frame between two forked processes, two ways.

    python3 tools/pingpong.py --rounds 20000 --reps 7

Each repetition times ``--rounds`` round trips of a 32-byte header
between this process and an echo process it forks, one of two ways:

- ``pipe``: a pair of pipes, framed by ``protocol.write_message`` and
  ``protocol.read_message`` (one ``os.write`` and one ``os.read`` per
  frame);
- ``slot``: the process channel's ports, framed by
  ``context.write_message`` and ``context.read_message``: each direction
  is a header slot in one shared page and a semaphore.

Each way runs pinned, both processes on one core as ``bench/run.py``
pins them, and the slot also runs unpinned, on every core this process
may use, where a reader's yields before it sleeps overlap the peer's
work on another core instead of handing it the core. Repetitions
alternate the order of the legs, so a drift of the host falls on all of
them, and this process's cores are restored after. The summary gives
each leg's median and range of µs per round trip over the repetitions,
and the pinned slot's median over the pinned pipe's.
"""

from __future__ import annotations

import argparse
import mmap
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from teebench.boundary import context, protocol  # noqa: E402
from teebench.boundary.protocol import HEADER_SIZE, RETURN  # noqa: E402


def _timed(rounds: int, ping, pong, echo) -> float:
    """µs per round trip: ``ping`` then ``pong`` in this process while a
    forked child runs ``echo`` ``rounds`` times."""
    pid = os.fork()
    if pid == 0:
        try:
            for _ in range(rounds):
                echo()
        finally:
            os._exit(0)
    try:
        start = time.perf_counter_ns()
        for _ in range(rounds):
            ping()
            pong()
        return (time.perf_counter_ns() - start) / rounds / 1e3
    finally:
        os.waitpid(pid, 0)


def pipe_rtt_us(rounds: int) -> float:
    ping_r, ping_w = os.pipe()
    pong_r, pong_w = os.pipe()
    write, read = protocol.write_message, protocol.read_message
    try:
        return _timed(rounds, lambda: write(ping_w, RETURN),
                      lambda: read(pong_r),
                      lambda: write(pong_w, *read(ping_r)))
    finally:
        for fd in (ping_r, ping_w, pong_r, pong_w):
            os.close(fd)


def slot_rtt_us(rounds: int) -> float:
    page = mmap.mmap(-1, 2 * HEADER_SIZE)
    ping = context._Port(page, 0, lambda: True)  # both ends outlive the legs
    pong = context._Port(page, HEADER_SIZE, lambda: True)
    write, read = context.write_message, context.read_message
    try:
        return _timed(rounds, lambda: write(ping, RETURN), lambda: read(pong),
                      lambda: write(pong, *read(ping)))
    finally:
        page.close()


WAYS = {"pipe": pipe_rtt_us, "slot": slot_rtt_us}
LEGS = (("pipe", "pinned"), ("slot", "pinned"), ("slot", "unpinned"))


def measure(rounds: int, reps: int) -> dict[tuple[str, str], list[float]]:
    """µs per round trip of each (way, placement) leg, one figure per
    repetition. A pinned leg runs on the highest of this process's cores,
    an unpinned one on all of them."""
    home = os.sched_getaffinity(0)
    cores = {"pinned": {max(home)}, "unpinned": home}
    out = {leg: [] for leg in LEGS}
    try:
        for rep in range(reps):
            for way, placement in LEGS if rep % 2 == 0 else reversed(LEGS):
                os.sched_setaffinity(0, cores[placement])  # the echo inherits it
                out[way, placement].append(WAYS[way](rounds))
    finally:
        os.sched_setaffinity(0, home)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20000)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    home = sorted(os.sched_getaffinity(0))
    results = measure(args.rounds, args.reps)
    print(f"{args.reps} reps of {args.rounds} round trips, pinned to cpu "
          f"{home[-1]}, unpinned on cpus {','.join(map(str, home))}")
    for (way, placement), values in results.items():
        print(f"{way:<5} {placement:<9} median {statistics.median(values):.3f} us "
              f"(min {min(values):.3f}, max {max(values):.3f})")
    ratio = (statistics.median(results["slot", "pinned"])
             / statistics.median(results["pipe", "pinned"]))
    print(f"slot/pipe pinned {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
