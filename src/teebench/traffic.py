"""Traffic generation engine: dummy payload, deadline pacing and the
measurement loop recording TransferMetrics.

The loop is single-threaded by contract and runs against a small
environment object (socket factory, heap accounting, monotonic clock),
so the same code drives both native sockets and the relayed facade
behind the emulated TEE boundary.
"""

from __future__ import annotations

import hashlib
import math
import random

from . import clock
from .boundary.protocol import IoctlCode
from .boundary.supplicant import OsSocket
from .core import (
    Mode,
    Protocol,
    RunConfig,
    TransferMetrics,
    validate_config,
)

# Below this inter-send gap, chunks are grouped per deadline to bound
# timer pressure; the factor is recorded in the metrics.
MIN_PACING_GAP = 0.001


def fill_dummy_buffer(size: int, seed: int) -> bytes:
    """Deterministic pseudo-random payload for a given (size, seed); the
    caller budgets it (``run_measurement`` calls ``env.alloc`` first)."""
    if size < 1:
        raise ValueError("buffer size must be >= 1")
    return random.Random(seed).randbytes(size)


def batch_factor(bitrate: float, chunk_size: int) -> int:
    interval = chunk_size * 8 / bitrate
    if interval >= MIN_PACING_GAP:
        return 1
    return math.ceil(MIN_PACING_GAP / interval)


class DirectEnv:
    """Measurement environment backed by plain OS sockets, no heap cap."""

    def alloc(self, nbytes: int) -> None:
        pass

    def free(self, nbytes: int) -> None:
        pass

    def monotonic(self) -> float:
        return clock.monotonic()

    def open_socket(self, host: str, port: int, protocol: Protocol) -> OsSocket:
        return OsSocket(host, port, protocol)


def run_measurement(cfg: RunConfig, env=None) -> TransferMetrics:
    """Send dummy traffic until the configured stop condition and time it.

    Connection failures yield partial metrics with the error flag set
    rather than an exception; a pacing underrun is recorded, not fatal.
    """
    cfg = validate_config(cfg)
    if env is None:
        env = DirectEnv()

    env.alloc(cfg.chunk_size)
    payload = fill_dummy_buffer(cfg.chunk_size, cfg.rng_seed)
    view = memoryview(payload)
    digest = hashlib.sha256()

    calls = 0
    sent_bytes = 0
    time_in_transmit = 0.0
    batch = 1
    underrun = False
    error = None

    sock = None
    try:
        sock = env.open_socket(cfg.host, cfg.port, cfg.protocol)
        sock.ioctl(IoctlCode.SET_BUF_SIZES,
                   (cfg.socket_buffer_size, cfg.socket_buffer_size))
    except OSError as exc:
        step = "connect"
        if sock is not None:
            step = "socket buffer setup"
            try:
                sock.close()
            except OSError:
                pass
        env.free(cfg.chunk_size)
        return TransferMetrics(
            transmit_calls=0, bytes_transferred=0, time_in_transmit=0.0,
            total_runtime=0.0, payload_sha256=digest.hexdigest(),
            error=f"{step} failed: errno {exc.errno}",
        )

    def timed_send(piece) -> int:
        nonlocal calls, sent_bytes, time_in_transmit
        start = env.monotonic()
        n = sock.send(piece)
        time_in_transmit += env.monotonic() - start
        calls += 1
        sent_bytes += n
        digest.update(piece[:n])
        return n

    t0 = env.monotonic()
    try:
        if cfg.mode is Mode.FIXED_BYTES:
            remaining = cfg.total_bytes
            while remaining > 0:
                n = timed_send(view[:min(len(view), remaining)])
                if n == 0:
                    error = "transport accepted zero bytes"
                    break
                remaining -= n

        elif cfg.mode is Mode.FIXED_DURATION:
            while env.monotonic() - t0 < cfg.duration:
                timed_send(view)

        else:  # CONSTANT_RATE, bounded by the duration
            batch = batch_factor(cfg.bitrate, cfg.chunk_size)
            gap = batch * cfg.chunk_size * 8 / cfg.bitrate
            groups = max(1, int(cfg.duration / gap))
            for g in range(groups):
                # kvbench's rule: a late group shifts nothing after it
                clock.wait_until(t0 + g * gap)
                for _ in range(batch):
                    timed_send(view)
            # a paced run owns the full interval of every chunk it sent
            _, underrun = clock.finish_schedule(t0, t0 + groups * gap)
    except OSError as exc:
        error = f"transmit failed: errno {exc.errno}"

    total_runtime = env.monotonic() - t0

    try:
        sock.close()
    except OSError:
        pass
    env.free(cfg.chunk_size)

    return TransferMetrics(
        transmit_calls=calls,
        bytes_transferred=sent_bytes,
        time_in_transmit=time_in_transmit,
        total_runtime=total_runtime,
        payload_sha256=digest.hexdigest(),
        pacing_batch=batch,
        underrun=underrun,
        error=error,
    )
