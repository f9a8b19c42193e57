"""Measuring sink: drains TCP connections or UDP datagram flows and
records per-flow ServerMetrics.

The sink works out its own receive sizes, so no caller can make it
mis-count: a TCP flow reads up to ``TCP_READ_SIZE`` (128 KiB) at a time,
and the UDP loop receives up to ``MAX_UDP_PAYLOAD``, the largest payload
of an IPv4 datagram, so every datagram is read whole.

The server always runs in the normal (untrusted) environment. Both
protocols account a flow in one accumulator (``_Flow``: peer, first and
last receive time, bytes, calls, SHA-256) that builds its record, and
every record goes to one list, in completion order, which readers wait
on. TCP flows additionally carry transport introspection (smoothed RTT,
MSS) read from the kernel; those values are reported verbatim or not at
all. UDP flow identity is (source address, source port); a flow ends
after an idle timeout.

The sink shares its process, and often its core, with the client it
measures, so its own wake-ups are billed to that client. A TCP flow
therefore lets the kernel coalesce them: after the first receive it
sets ``SO_RCVLOWAT`` to half of the smaller of ``TCP_READ_SIZE`` and
the socket buffer, so a receive returns only once that many bytes are
queued, or at EOF or an error (which still deliver a shorter tail). The
first receive runs with the default mark of one byte, so ``first`` is
when data first arrived, not when a mark's worth had. Since a slow flow
may then not wake the sink for a long time, the smoothed RTT is sampled
whenever a receive waits ``RTT_SAMPLE_INTERVAL`` without returning.

``stop()`` wakes each protocol's loop by shutting its socket down, so it
returns as soon as running flows drain, with no stop flag to poll. This
relies on Linux, so the sink needs Linux. A shut-down TCP listener's
``accept`` fails (EINVAL), which ends the accept loop. A shut-down UDP
socket's receive returns the datagrams already queued and then one with
no sender, which ends the UDP loop. Shutdown alone does not stop new
datagrams from being queued, so a client still sending could keep that
loop draining; ``stop()`` therefore first connects the UDP socket to
itself, which turns every other sender away and leaves the loop only
what was queued. The end of the queue shows only for a blocking receive
(a non-blocking one returns EAGAIN until its timeout), so the UDP loop's
0.1 s tick, at which it also ends idle flows, is a kernel receive
timeout (``SO_RCVTIMEO``), not ``settimeout``. The receive sizes, the
idle timeout and the RTT cadence are module constants: every caller of
the sink keeps them, and tests shorten the two timings by patching this
module.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
from dataclasses import dataclass

from . import clock
from .core import (
    DEFAULT_PORT,
    DEFAULT_SOCKET_BUFFER,
    DEFAULT_CHUNK_SIZE,
    MAX_UDP_PAYLOAD,
    Protocol,
    ServerMetrics,
)

# byte offset of tcpi_rtt (u32, microseconds) in struct tcp_info
_TCP_INFO_RTT_OFFSET = 68
_TCP_INFO_LEN = 104
# A TCP flow reads up to this many bytes per receive.
TCP_READ_SIZE = DEFAULT_CHUNK_SIZE
# A UDP flow ends after this long without a datagram (seconds).
UDP_IDLE_TIMEOUT = 2.0
# A TCP receive that waits this long without data takes an RTT sample
# (seconds).
RTT_SAMPLE_INTERVAL = 1.0


@dataclass(frozen=True)
class ServerConfig:
    bind: str = ""                  # all interfaces
    port: int = DEFAULT_PORT
    protocol: Protocol = Protocol.TCP
    socket_buffer: int = DEFAULT_SOCKET_BUFFER


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


class _Flow:
    """One flow's receive accounting; runtime is first to last receive."""

    __slots__ = ("peer", "first", "last", "bytes", "calls", "digest")

    def __init__(self, addr):
        self.peer = f"{addr[0]}:{addr[1]}"
        self.first = self.last = 0.0
        self.bytes = self.calls = 0
        self.digest = hashlib.sha256()

    def add(self, data: bytes, now: float) -> None:
        if not self.calls:
            self.first = now
        self.last = now
        self.bytes += len(data)
        self.calls += 1
        self.digest.update(data)

    def record(self, protocol: Protocol, **transport) -> ServerMetrics:
        return ServerMetrics(
            peer=self.peer, protocol=protocol,
            bytes_received=self.bytes, receive_calls=self.calls,
            runtime=self.last - self.first,
            payload_sha256=self.digest.hexdigest(), **transport)


class BenchmarkServer:
    """Accepts flows and keeps one metric record per flow, in completion
    order, in a single list that readers wait on."""

    def __init__(self, cfg: ServerConfig | None = None):
        self.cfg = cfg or ServerConfig()
        self._collected: list[ServerMetrics] = []
        self._arrived = threading.Condition()
        self._listener: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self._sock: socket.socket | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "BenchmarkServer":
        cfg = self.cfg
        tcp = cfg.protocol is Protocol.TCP
        sock = socket.socket(socket.AF_INET,
                             socket.SOCK_STREAM if tcp else socket.SOCK_DGRAM)
        try:
            if tcp:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((cfg.bind, cfg.port))
                sock.listen(16)
            else:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, cfg.socket_buffer)
                # the UDP loop's 0.1 s tick (struct timeval: s, µs)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                                struct.pack("ll", 0, 100_000))
                sock.bind((cfg.bind, cfg.port))
        except OSError:
            sock.close()
            raise
        runner = self._tcp_accept_loop if tcp else self._udp_loop
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._listener = threading.Thread(target=runner, args=(sock,), daemon=True)
        self._listener.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drain running flows and close the listener.

        Shutting the listening socket down wakes its loop at once (see
        the module docstring). A UDP socket is first connected to
        itself, so that no client's datagrams are queued after this
        call; those already queued are still recorded. Running TCP flows
        still end at their peer's close; UDP flows end with the loop.
        """
        sock, self._sock = self._sock, None
        if sock is None:
            return
        if self.cfg.protocol is Protocol.UDP:
            sock.connect(sock.getsockname())
        sock.shutdown(socket.SHUT_RDWR)
        self._listener.join(timeout=10)
        for worker in self._workers:
            worker.join(timeout=10)
        sock.close()

    def __enter__(self) -> "BenchmarkServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- records ---------------------------------------------------------------

    def _emit(self, record: ServerMetrics) -> None:
        with self._arrived:
            self._collected.append(record)
            self._arrived.notify_all()

    def collected(self) -> list[ServerMetrics]:
        with self._arrived:
            return list(self._collected)

    def wait_for_records(self, count: int,
                         timeout: float | None = 30.0) -> list[ServerMetrics]:
        """The first ``count`` records, waiting up to ``timeout`` seconds
        for them to complete; ``timeout=None`` waits forever."""
        with self._arrived:
            if not self._arrived.wait_for(
                    lambda: len(self._collected) >= count, timeout):
                raise TimeoutError(
                    f"expected {count} flow records, got {len(self._collected)}"
                )
            return self._collected[:count]

    # -- TCP -----------------------------------------------------------------

    def _tcp_accept_loop(self, sock: socket.socket) -> None:
        while True:
            try:
                conn, addr = sock.accept()
            except OSError:         # EINVAL once stop() shut it down
                break
            worker = threading.Thread(
                target=self._tcp_flow, args=(conn, addr), daemon=True
            )
            worker.start()
            self._workers = [w for w in self._workers if w.is_alive()]
            self._workers.append(worker)

    def _tcp_flow(self, conn: socket.socket, addr) -> None:
        cfg = self.cfg
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, cfg.socket_buffer)
        conn.settimeout(RTT_SAMPLE_INTERVAL)
        mark = min(TCP_READ_SIZE, cfg.socket_buffer) // 2
        flow = _Flow(addr)
        error = None
        rtt_samples: list[float] = []
        last_probe = clock.monotonic()
        try:
            while True:
                try:
                    data = conn.recv(TCP_READ_SIZE)
                except TimeoutError:
                    data = None
                now = clock.monotonic()
                if data:
                    if not flow.calls:
                        # The sink's wake-ups are billed to the client on
                        # its core: from here the kernel wakes it once per
                        # ``mark`` bytes, EOF or error, not per segment.
                        # Set only after the first receive, so ``first``
                        # is not held back until a mark's worth arrives.
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVLOWAT, mark)
                    flow.add(data, now)
                elif data is not None:
                    break
                if data is None or now - last_probe >= RTT_SAMPLE_INTERVAL:
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
        self._emit(flow.record(
            Protocol.TCP, smoothed_rtt=info.smoothed_rtt,
            max_segment_size=info.max_segment_size,
            rtt_samples=tuple(rtt_samples), error=error))

    # -- UDP ---------------------------------------------------------------------

    def _udp_loop(self, sock: socket.socket) -> None:
        flows: dict[tuple, _Flow] = {}
        while True:
            try:
                data, addr = sock.recvfrom(MAX_UDP_PAYLOAD)
                if addr is None:    # no sender: stop() shut it down
                    break
                now = clock.monotonic()
                flow = flows.get(addr)
                if flow is None:
                    flow = flows[addr] = _Flow(addr)
                flow.add(data, now)
            except BlockingIOError:     # the receive tick passed
                pass
            except OSError:
                break
            now = clock.monotonic()
            for addr in [a for a, f in flows.items()
                         if now - f.last > UDP_IDLE_TIMEOUT]:
                self._emit(flows.pop(addr).record(Protocol.UDP))
        for flow in flows.values():
            self._emit(flow.record(Protocol.UDP))
