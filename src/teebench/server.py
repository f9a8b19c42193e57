"""Measuring sink: drains TCP connections or UDP datagram flows into a
fixed buffer and records per-flow ServerMetrics.

The server always runs in the normal (untrusted) environment. TCP flows
additionally carry transport introspection (smoothed RTT, MSS) read from
the kernel; those values are reported verbatim or not at all. UDP flow
identity is (source address, source port); a flow ends after an idle
timeout.
"""

from __future__ import annotations

import hashlib
import queue
import socket
import struct
import threading
from dataclasses import dataclass

from . import clock
from .core import (
    DEFAULT_PORT,
    DEFAULT_SOCKET_BUFFER,
    DEFAULT_CHUNK_SIZE,
    Protocol,
    ServerMetrics,
)

# byte offset of tcpi_rtt (u32, microseconds) in struct tcp_info
_TCP_INFO_RTT_OFFSET = 68
_TCP_INFO_LEN = 104


@dataclass(frozen=True)
class ServerConfig:
    bind: str = ""                  # all interfaces
    port: int = DEFAULT_PORT
    protocol: Protocol = Protocol.TCP
    recv_buffer: int = DEFAULT_CHUNK_SIZE
    socket_buffer: int = DEFAULT_SOCKET_BUFFER
    udp_idle_timeout: float = 2.0
    rtt_sample_interval: float = 1.0


@dataclass(frozen=True)
class TransportInfo:
    smoothed_rtt: float | None      # seconds
    max_segment_size: int | None    # bytes


def probe_transport(sock) -> TransportInfo:
    """Kernel-reported smoothed RTT and MSS for a live TCP connection.

    Returns None fields whenever the platform or socket state does not
    expose them; values are never estimated.
    """
    rtt = None
    mss = None
    try:
        if hasattr(socket, "TCP_INFO"):
            raw = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, _TCP_INFO_LEN)
            if len(raw) >= _TCP_INFO_RTT_OFFSET + 4:
                (rtt_us,) = struct.unpack_from("<I", raw, _TCP_INFO_RTT_OFFSET)
                rtt = rtt_us / 1e6
    except OSError:
        rtt = None
    try:
        mss = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_MAXSEG)
    except OSError:
        mss = None
    return TransportInfo(smoothed_rtt=rtt, max_segment_size=mss)


class _UdpFlow:
    __slots__ = ("peer", "first", "last", "bytes", "calls", "digest")

    def __init__(self, peer: str, now: float):
        self.peer = peer
        self.first = now
        self.last = now
        self.bytes = 0
        self.calls = 0
        self.digest = hashlib.sha256()


class BenchmarkServer:
    """Accepts flows and serializes their metric records through a single
    collector queue, one record per flow in completion order."""

    def __init__(self, cfg: ServerConfig | None = None):
        self.cfg = cfg or ServerConfig()
        self._records: "queue.Queue[ServerMetrics | None]" = queue.Queue()
        self._collected: list[ServerMetrics] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._workers: list[threading.Thread] = []
        self._sock: socket.socket | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "BenchmarkServer":
        cfg = self.cfg
        if cfg.protocol is Protocol.TCP:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((cfg.bind, cfg.port))
            sock.listen(16)
            sock.settimeout(0.2)
            runner = self._tcp_accept_loop
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, cfg.socket_buffer)
            sock.bind((cfg.bind, cfg.port))
            sock.settimeout(0.1)
            runner = self._udp_loop
        self._sock = sock
        self.port = sock.getsockname()[1]
        thread = threading.Thread(target=runner, args=(sock,), daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop accepting, drain running flows and close the listener."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10)
        for worker in list(self._workers):
            worker.join(timeout=10)
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "BenchmarkServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- records ---------------------------------------------------------------

    def _emit(self, record: ServerMetrics) -> None:
        self._collected.append(record)
        self._records.put(record)

    def collected(self) -> list[ServerMetrics]:
        return list(self._collected)

    def next_record(self, timeout: float | None = None) -> ServerMetrics:
        return self._records.get(timeout=timeout)

    def wait_for_records(self, count: int, timeout: float = 30.0) -> list[ServerMetrics]:
        deadline = clock.monotonic() + timeout
        while len(self._collected) < count:
            remaining = deadline - clock.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"expected {count} flow records, got {len(self._collected)}"
                )
            try:
                self._records.get(timeout=min(remaining, 0.2))
            except queue.Empty:
                pass
        return self.collected()[:count]

    # -- TCP -----------------------------------------------------------------

    def _tcp_accept_loop(self, listener: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            worker = threading.Thread(
                target=self._tcp_flow, args=(conn, addr), daemon=True
            )
            worker.start()
            self._workers.append(worker)

    def _tcp_flow(self, conn: socket.socket, addr) -> None:
        cfg = self.cfg
        peer = f"{addr[0]}:{addr[1]}"
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, cfg.socket_buffer)
        digest = hashlib.sha256()
        first = None
        last = None
        total = 0
        calls = 0
        error = None
        rtt_samples: list[float] = []
        last_probe = clock.monotonic()
        try:
            while True:
                data = conn.recv(cfg.recv_buffer)
                now = clock.monotonic()
                if not data:
                    break
                calls += 1
                if first is None:
                    first = now
                last = now
                total += len(data)
                digest.update(data)
                if now - last_probe >= cfg.rtt_sample_interval:
                    last_probe = now
                    info = probe_transport(conn)
                    if info.smoothed_rtt is not None:
                        rtt_samples.append(info.smoothed_rtt)
        except (ConnectionResetError, ConnectionAbortedError):
            error = "connection reset"
        except OSError as exc:
            error = f"recv failed: errno {exc.errno}"
        info = probe_transport(conn)
        if info.smoothed_rtt is not None:
            rtt_samples.append(info.smoothed_rtt)
        conn.close()
        self._emit(ServerMetrics(
            peer=peer,
            protocol=Protocol.TCP,
            bytes_received=total,
            receive_calls=calls,
            runtime=(last - first) if first is not None else 0.0,
            smoothed_rtt=info.smoothed_rtt,
            max_segment_size=info.max_segment_size,
            payload_sha256=digest.hexdigest(),
            rtt_samples=tuple(rtt_samples),
            error=error,
        ))

    # -- UDP ---------------------------------------------------------------------

    def _udp_loop(self, sock: socket.socket) -> None:
        cfg = self.cfg
        flows: dict[tuple, _UdpFlow] = {}
        while not self._stop.is_set():
            try:
                data, addr = sock.recvfrom(cfg.recv_buffer)
                now = clock.monotonic()
                flow = flows.get(addr)
                if flow is None:
                    flow = flows[addr] = _UdpFlow(f"{addr[0]}:{addr[1]}", now)
                flow.calls += 1
                flow.bytes += len(data)
                flow.digest.update(data)
                flow.last = now
            except socket.timeout:
                pass
            except OSError:
                break
            now = clock.monotonic()
            expired = [a for a, f in flows.items()
                       if now - f.last > cfg.udp_idle_timeout]
            for addr in expired:
                self._emit_udp(flows.pop(addr))
        for flow in flows.values():
            self._emit_udp(flow)

    def _emit_udp(self, flow: _UdpFlow) -> None:
        self._emit(ServerMetrics(
            peer=flow.peer,
            protocol=Protocol.UDP,
            bytes_received=flow.bytes,
            receive_calls=flow.calls,
            runtime=flow.last - flow.first,
            smoothed_rtt=None,
            max_segment_size=None,
            payload_sha256=flow.digest.hexdigest(),
        ))
