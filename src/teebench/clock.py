"""Monotonic-clock helpers shared by pacing, benchmarking and cost injection.

``time.sleep`` on Linux routinely overshoots by hundreds of microseconds,
which would distort both paced sends and injected world-switch costs, so
waits below SPIN_WINDOW are busy-waited on the nanosecond clock.
"""

from __future__ import annotations

import time

# Remaining wait below which we spin instead of sleeping.
SPIN_WINDOW = 0.0012


def monotonic() -> float:
    """Monotonic seconds with nanosecond resolution."""
    return time.monotonic_ns() / 1e9


def wait_until(deadline: float) -> float:
    """Block until the monotonic clock reaches ``deadline``; returns now.

    Sleeps coarsely while far from the deadline, then spins, so the
    return is never early and rarely more than a few microseconds late.
    """
    while True:
        remaining = deadline - monotonic()
        if remaining <= 0:
            return monotonic()
        if remaining > SPIN_WINDOW:
            time.sleep(remaining - SPIN_WINDOW * 0.8)
        else:
            deadline_ns = int(deadline * 1e9)
            while time.monotonic_ns() < deadline_ns:
                pass
            return monotonic()


def inject_delay(cost: float) -> None:
    """Burn ``cost`` seconds of wall time (>= cost, tightly bounded above);
    a cost of zero or less returns at once."""
    wait_until(monotonic() + cost)


def finish_schedule(t0: float, scheduled_end: float) -> tuple[float, bool]:
    """Wait out a paced schedule begun at ``t0``; return the elapsed time
    and whether pacing underran: done more than 5% past the scheduled
    span, with no absolute slack, which would hide the overrun of a short
    schedule."""
    now = monotonic()
    if now < scheduled_end:
        now = wait_until(scheduled_end)
    elapsed = now - t0
    return elapsed, elapsed > (scheduled_end - t0) * 1.05
