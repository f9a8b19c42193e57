"""Shared vocabulary of the suite: run configuration, metric records and
the derived quantities every other module consumes."""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

KIB = 1024
MIB = 1024 * 1024

DEFAULT_PORT = 5201
DEFAULT_DURATION = 10.0
DEFAULT_CHUNK_SIZE = 128 * KIB
DEFAULT_SOCKET_BUFFER = 128 * KIB

# Trusted-side runtime heap budget; allocations beyond it get an
# out-of-memory code instead of succeeding.
TA_MEMORY_LIMIT = 1 * MIB

# Largest payload a single UDP datagram can carry (IPv4, no jumbograms).
MAX_UDP_PAYLOAD = 65507


class Mode(enum.Enum):
    """Stop condition of a measurement run."""

    CONSTANT_RATE = "constant-rate"
    FIXED_BYTES = "fixed-bytes"
    FIXED_DURATION = "fixed-duration"


class Protocol(enum.Enum):
    TCP = "tcp"
    UDP = "udp"


class Execution(enum.Enum):
    DIRECT = "direct"
    BOUNDARY = "boundary"


class SharedMode(enum.Enum):
    """How a memory area is shared with the trusted side."""

    WHOLE = "whole"
    PARTIAL = "partial"
    TEMPORARY = "temporary"


class ConfigError(ValueError):
    """Invalid run configuration; carries every violation, not just the first.

    ``errors`` is a list of ``(field_name, message)`` pairs.
    """

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        super().__init__("; ".join(f"{field}: {msg}" for field, msg in self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Full description of one measurement run.

    Exactly the stop-condition field matching ``mode`` is meaningful:
    ``bitrate`` for CONSTANT_RATE (with ``duration`` bounding the run),
    ``total_bytes`` for FIXED_BYTES, ``duration`` for FIXED_DURATION.
    ``validate_config`` normalizes the others to None.
    """

    mode: Mode = Mode.FIXED_DURATION
    bitrate: float | None = None            # bits/second, decimal units
    total_bytes: int | None = None
    duration: float | None = DEFAULT_DURATION
    chunk_size: int = DEFAULT_CHUNK_SIZE    # bytes written per transmit call
    socket_buffer_size: int = DEFAULT_SOCKET_BUFFER
    protocol: Protocol = Protocol.TCP
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    execution: Execution = Execution.DIRECT
    shared_mode: SharedMode = SharedMode.WHOLE   # boundary runs only
    switch_cost: float = 0.0                # seconds per boundary crossing
    rng_seed: int = 0                       # 64-bit dummy-data generator seed

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key, value in d.items():
            if isinstance(value, enum.Enum):
                d[key] = value.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        kwargs = dict(d)
        kwargs["mode"] = Mode(kwargs["mode"])
        kwargs["protocol"] = Protocol(kwargs["protocol"])
        kwargs["execution"] = Execution(kwargs["execution"])
        kwargs["shared_mode"] = SharedMode(kwargs["shared_mode"])
        return cls(**kwargs)


@dataclass(frozen=True)
class TransferMetrics:
    """Client-side results of one run.

    ``time_in_transmit`` is the summed wall time spent inside transmit
    calls; ``total_runtime`` is the whole measurement window. Both come
    from the monotonic clock.
    """

    transmit_calls: int
    bytes_transferred: int
    time_in_transmit: float
    total_runtime: float
    payload_sha256: str | None = None
    pacing_batch: int = 1                   # chunks grouped per pacing deadline
    underrun: bool = False                  # pacing could not sustain the target
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TransferMetrics":
        return cls(**d)


@dataclass(frozen=True)
class ServerMetrics:
    """Per-flow results recorded by the measuring sink.

    ``smoothed_rtt`` (seconds) and ``max_segment_size`` (bytes) are None
    for UDP flows and whenever the platform does not expose them; they
    are never estimated.
    """

    peer: str
    protocol: Protocol
    bytes_received: int
    receive_calls: int
    runtime: float                          # first byte to last byte
    smoothed_rtt: float | None = None
    max_segment_size: int | None = None
    payload_sha256: str | None = None
    rtt_samples: tuple[float, ...] = ()     # sampled roughly once per second
    error: str | None = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["protocol"] = self.protocol.value
        d["rtt_samples"] = list(self.rtt_samples)
        return d


def derive_throughput(metrics: TransferMetrics) -> float:
    """Achieved throughput in bits/second: bytes x 8 / total_runtime."""
    if metrics.total_runtime <= 0:
        raise ValueError("total_runtime must be > 0 to derive throughput")
    return metrics.bytes_transferred * 8 / metrics.total_runtime


def validate_config(cfg: RunConfig) -> RunConfig:
    """Return a normalized copy of ``cfg`` or raise ConfigError listing
    every violated invariant.

    Normalization clears stop-condition fields that do not apply to
    ``cfg.mode`` and fills the default duration bound for constant-rate
    runs, so validating an already-validated config returns it unchanged.
    """
    errors: list[tuple[str, str]] = []

    bitrate = cfg.bitrate
    total_bytes = cfg.total_bytes
    duration = cfg.duration

    if cfg.mode is Mode.CONSTANT_RATE:
        if bitrate is None:
            errors.append(("bitrate", "required for constant-rate mode"))
        elif not 0 < bitrate < math.inf:
            errors.append(("bitrate", "must be finite and > 0"))
        # constant-rate runs are bounded by a duration as well
        if duration is None:
            duration = DEFAULT_DURATION
        if not 0 < duration < math.inf:
            errors.append(("duration", "must be finite and > 0"))
        total_bytes = None
    elif cfg.mode is Mode.FIXED_BYTES:
        if total_bytes is None:
            errors.append(("total_bytes", "required for fixed-bytes mode"))
        elif total_bytes < 1:
            errors.append(("total_bytes", "must be >= 1"))
        bitrate = None
        duration = None
    elif cfg.mode is Mode.FIXED_DURATION:
        if duration is None:
            errors.append(("duration", "required for fixed-duration mode"))
        elif not 0 < duration < math.inf:
            errors.append(("duration", "must be finite and > 0"))
        bitrate = None
        total_bytes = None
    else:
        errors.append(("mode", f"unknown mode {cfg.mode!r}"))

    if cfg.chunk_size < 1:
        errors.append(("chunk_size", "must be >= 1"))
    if cfg.socket_buffer_size < 1:
        errors.append(("socket_buffer_size", "must be >= 1"))
    if cfg.execution is Execution.BOUNDARY and cfg.chunk_size > TA_MEMORY_LIMIT:
        errors.append(("chunk_size", "exceeds TA memory limit (1 MiB)"))
    if cfg.protocol is Protocol.UDP and cfg.chunk_size > MAX_UDP_PAYLOAD:
        errors.append(("chunk_size", f"exceeds UDP datagram limit ({MAX_UDP_PAYLOAD})"))
    if not cfg.host:
        errors.append(("host", "must be non-empty"))
    if not 1 <= cfg.port <= 65535:
        errors.append(("port", "must be in 1..65535"))
    if not 0 <= cfg.switch_cost < math.inf:
        errors.append(("switch_cost", "must be finite and >= 0"))
    if not 0 <= cfg.rng_seed < 2**64:
        errors.append(("rng_seed", "must fit in 64 bits"))

    if errors:
        raise ConfigError(errors)

    return dataclasses.replace(
        cfg, bitrate=bitrate, total_bytes=total_bytes, duration=duration
    )
