"""What a fork-per-session trusted world costs before its first crossing.

    python3 tools/forkcost.py --pages 256

The process transport forks one trusted process per session
(``boundary/context.py``). So a session pays for a fork, for a
copy-on-write fault on each private page either process writes after
it, and for an exit and a reap, none of which is a crossing. Each
of ``REPS`` repetitions forks one child of this process and reads:

- ``spawn_us``: µs from just before ``os.fork()`` to the child's first
  Python line;
- ``reap_us``: µs from just before the child's ``os._exit`` to the
  return of the parent's ``os.wait4``;
- ``minflt``: the child's minor faults, from that ``wait4``'s rusage,
  less the faults of its page writes below;
- ``cow_us_per_page``: µs per page of the child's first write to
  ``--pages`` private pages it inherited, each of which copies the page;
- ``warm_us_per_page``: µs per page of the parent's write to the same
  pages just before the fork, where nothing faults.

It pins itself, and so its children, to one core as ``bench/run.py``
pins a run (the highest of this process's cores), and restores its
cores after. The child's figures come back through one shared page, so
it makes no system call between its stamps and its exit. Times are
``time.monotonic_ns``, one clock for both processes. The summary gives
each figure's median and range over the repetitions.
"""

from __future__ import annotations

import argparse
import mmap
import os
import resource
import statistics
import struct
import sys
import time

PAGE = mmap.PAGESIZE
REPS = 21
FIGURES = ("spawn_us", "reap_us", "minflt", "cow_us_per_page",
           "warm_us_per_page")
# the child's first-line stamp, its page writes' ns and faults, its exit stamp
_STAMPS = struct.Struct("<4q")


def _write_pages(buf: mmap.mmap, pages: int) -> int:
    """ns to write one byte into each of the first ``pages`` pages of
    ``buf``."""
    start = time.monotonic_ns()
    for offset in range(0, pages * PAGE, PAGE):
        buf[offset] = 1
    return time.monotonic_ns() - start


def _fork_once(buf: mmap.mmap, pages: int, stamps: mmap.mmap) -> dict:
    """One child's figures, named as in ``FIGURES``."""
    # A past fork left the parent's pages write-protected: the first
    # write takes them back, the second is the warm one.
    _write_pages(buf, pages)
    warm = _write_pages(buf, pages)
    forked = time.monotonic_ns()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            started = time.monotonic_ns()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            took = _write_pages(buf, pages)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            _STAMPS.pack_into(stamps, 0, started, took, faults,
                              time.monotonic_ns())
            code = 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    reaped = time.monotonic_ns()
    if status:
        raise RuntimeError(f"forked child ended with wait status {status}")
    started, took, faults, exiting = _STAMPS.unpack_from(stamps)
    return {"spawn_us": (started - forked) / 1e3,
            "reap_us": (reaped - exiting) / 1e3,
            "minflt": usage.ru_minflt - faults,
            "cow_us_per_page": took / pages / 1e3,
            "warm_us_per_page": warm / pages / 1e3}


def measure(reps: int, pages: int) -> dict[str, list[float]]:
    """Each of ``FIGURES`` over ``reps`` forks, one value per fork, with
    this process pinned to the highest of its cores meanwhile."""
    home = os.sched_getaffinity(0)
    buf = mmap.mmap(-1, pages * PAGE, flags=mmap.MAP_PRIVATE)
    stamps = mmap.mmap(-1, _STAMPS.size)  # shared with the child
    os.sched_setaffinity(0, {max(home)})
    try:
        runs = [_fork_once(buf, pages, stamps) for _ in range(reps)]
    finally:
        os.sched_setaffinity(0, home)
        buf.close()
        stamps.close()
    return {name: [run[name] for run in runs] for name in FIGURES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pages", type=int, default=256)
    args = parser.parse_args(argv)
    if args.pages < 1:
        parser.error("--pages must be >= 1")
    results = measure(REPS, args.pages)
    print(f"{REPS} forks pinned to cpu {max(os.sched_getaffinity(0))}, "
          f"{args.pages} pages of {PAGE} B")
    for name, values in results.items():
        print(f"{name:<17} median {statistics.median(values):.3f} "
              f"(min {min(values):.3f}, max {max(values):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
