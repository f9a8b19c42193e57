"""Power-trace ingestion and per-run energy via trapezoidal integration.

Two meter trace formats are accepted, both plain CSV without a header:

* pdu:       ``unix_time,watts`` (integer-second cadence typical)
* powerspy:  ``unix_time,volts,amps,watts`` (the watts column is used)

Blank lines and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

import bisect
import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


class TraceFormat(enum.Enum):
    PDU_CSV = "pdu"
    POWERSPY_CSV = "powerspy"


class TraceError(ValueError):
    """Malformed or empty power trace."""


class IntegrationError(ValueError):
    """Requested window cannot be integrated from the given samples."""


@dataclass(frozen=True)
class PowerSample:
    timestamp: float            # Unix time, seconds
    power: float                # instantaneous watts


@dataclass(frozen=True)
class EnergyReport:
    t_start: float
    t_end: float
    energy: float               # joules
    sample_count: int           # ingested samples inside [t_start, t_end]
    mean_power: float           # energy / (t_end - t_start)

    def to_dict(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "energy_joules": self.energy,
            "sample_count": self.sample_count,
            "mean_power_watts": self.mean_power,
        }


# format -> (column count, watts column)
_LAYOUT = {TraceFormat.PDU_CSV: (2, 1), TraceFormat.POWERSPY_CSV: (4, 3)}


def ingest_trace(source, fmt: TraceFormat) -> list[PowerSample]:
    """Parse a meter trace into samples sorted by timestamp.

    ``source`` is a path or an open text file. Rows sharing a timestamp
    are collapsed into one sample with their mean power. Malformed rows,
    including a NaN or infinite timestamp or power, raise TraceError
    naming the line; an empty trace is an error too.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as fh:
            return ingest_trace(fh, fmt)

    want, wcol = _LAYOUT[fmt]
    by_time: dict[float, list[float]] = {}
    for lineno, row in enumerate(csv.reader(source), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if len(row) != want:
            raise TraceError(f"line {lineno}: expected {want} columns, got {len(row)}")
        try:
            ts = float(row[0])
            power = float(row[wcol])
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(ts) and math.isfinite(power)):
            raise TraceError(f"line {lineno}: non-finite timestamp or power "
                             f"({ts}, {power})")
        if power < 0:
            raise TraceError(f"line {lineno}: negative power {power}")
        by_time.setdefault(ts, []).append(power)

    if not by_time:
        raise TraceError("trace contains no samples")
    return [PowerSample(ts, sum(powers) / len(powers))
            for ts, powers in sorted(by_time.items())]


def _power_at(times: Sequence[float], powers: Sequence[float], t: float) -> float:
    # linear interpolation; t must lie within [times[0], times[-1]]
    idx = bisect.bisect_left(times, t)
    if idx < len(times) and times[idx] == t:
        return powers[idx]
    lo, hi = idx - 1, idx
    frac = (t - times[lo]) / (times[hi] - times[lo])
    return powers[lo] + frac * (powers[hi] - powers[lo])


def integrate_energy(
    samples: Iterable[PowerSample], t_start: float, t_end: float
) -> EnergyReport:
    """Trapezoidal energy over [t_start, t_end].

    The window must be finite and lie within the trace span; power at the
    window edges is linearly interpolated from the bracketing samples.
    Energy is the sum over consecutive in-window points of
    (dt)(p_i + p_{i+1}) / 2.
    """
    pts = sorted(samples, key=lambda s: s.timestamp)
    if len(pts) < 2:
        raise IntegrationError("insufficient samples: need at least 2")
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise IntegrationError(f"window [{t_start}, {t_end}] is not finite")
    if t_end <= t_start:
        raise IntegrationError("window must satisfy t_start < t_end")
    times = [s.timestamp for s in pts]
    powers = [s.power for s in pts]
    if t_start < times[0] or t_end > times[-1]:
        raise IntegrationError(
            f"window [{t_start}, {t_end}] outside trace span [{times[0]}, {times[-1]}]"
        )

    lo = bisect.bisect_right(times, t_start)
    hi = bisect.bisect_left(times, t_end)
    xs = [t_start] + times[lo:hi] + [t_end]
    ys = [_power_at(times, powers, t_start)] + powers[lo:hi] + [
        _power_at(times, powers, t_end)
    ]

    energy = 0.0
    for k in range(len(xs) - 1):
        energy += (xs[k + 1] - xs[k]) * (ys[k] + ys[k + 1]) / 2

    in_window = sum(1 for t in times if t_start <= t <= t_end)
    return EnergyReport(
        t_start=t_start,
        t_end=t_end,
        energy=energy,
        sample_count=in_window,
        mean_power=energy / (t_end - t_start),
    )
