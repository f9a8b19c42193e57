"""Relay agent performing real OS socket work on behalf of the trusted side.

One supplicant serves one session. Payload bytes move through the
session's scratch region; the supplicant never sees more than the
(region, offset, length) reference carried by the descriptor. Handle 0
is a built-in always-open discard sink that swallows sends and returns
EOF on recv, used by scripted crossing-accounting runs.

``OsSocket`` is the one OS-socket surface of the package: the supplicant
maps each handle to one, and native (direct) runs use it as is.
"""

from __future__ import annotations

import errno
import socket
import struct

from ..core import Protocol
from .errors import RegionFault
from .protocol import (
    Command,
    IoctlCode,
    Message,
    SocketProtocolCode,
    unpack_ioctl_body,
    unpack_sock_open_body,
)

DISCARD_HANDLE = 0


class OsSocket:
    """Connected OS socket with the same surface as the relayed facade.

    An OS failure is recorded as the socket's last errno and re-raised,
    so ``error()`` answers like a relayed SOCK_ERROR.
    """

    def __init__(self, host: str, port: int, protocol: Protocol):
        self.protocol = protocol
        self._last_errno = 0
        if protocol is Protocol.TCP:
            self.raw = socket.create_connection((host, port))
        else:
            self.raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                self.raw.connect((host, port))
            except OSError:
                self.raw.close()
                raise

    def _failed(self, exc: OSError) -> OSError:
        self._last_errno = exc.errno or errno.EIO
        return exc

    def send(self, data) -> int:
        try:
            return self.raw.send(data)
        except OSError as exc:
            raise self._failed(exc)

    def recv(self, max_bytes: int) -> bytes:
        try:
            return self.raw.recv(max_bytes)
        except OSError as exc:
            raise self._failed(exc)

    def ioctl(self, code: IoctlCode, arg) -> None:
        if code == IoctlCode.SET_PEER and self.protocol is not Protocol.UDP:
            raise OSError(errno.EOPNOTSUPP, "SET_PEER needs a UDP socket")
        if code not in (IoctlCode.SET_BUF_SIZES, IoctlCode.SET_PEER):
            raise OSError(errno.EINVAL, f"unknown ioctl code {code}")
        try:
            if code == IoctlCode.SET_BUF_SIZES:
                send_size, recv_size = arg
                self.raw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, send_size)
                self.raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_size)
            else:
                self.raw.connect(arg)
        except OSError as exc:
            raise self._failed(exc)

    def error(self) -> int:
        return self._last_errno

    def close(self) -> None:
        try:
            self.raw.close()
        except OSError as exc:
            raise self._failed(exc)


def _window(regions, msg: Message):
    region = regions.get(msg.region_id)
    if region is None:
        raise RegionFault(f"region {msg.region_id} is not shared with this session")
    return region


class Supplicant:
    def __init__(self):
        self._sockets: dict[int, OsSocket] = {}
        self._closed: dict[int, OsSocket] = {}  # SOCK_ERROR still answers for these
        self._next_handle = 1

    def service(self, msg: Message, regions) -> tuple[int, bytes]:
        """Execute one relayed call; returns (status, reply_body).

        ``regions`` maps region_id to an object with window_read/window_write.
        Status is >= 0 on success (handle or byte count) and -errno on
        failure: the OS errno verbatim, EBADF for an unknown handle, EFAULT
        for a region id or window the session does not share and EINVAL
        for a request body that does not decode or apply.
        """
        cmd = msg.command
        handle = msg.status
        if cmd == Command.SOCK_ERROR:
            sock = self._sockets.get(handle) or self._closed.get(handle)
            return (sock.error() if sock is not None else 0), b""
        try:
            if cmd == Command.SOCK_OPEN:
                return self._open(msg), b""
            if handle == DISCARD_HANDLE:
                if cmd == Command.SOCK_SEND:
                    # the copy out of shared memory still happens; bytes then vanish
                    _window(regions, msg).window_read(msg.offset, msg.length)
                    return msg.length, b""
                return 0, b""
            sock = self._sockets.get(handle)
            if sock is None:
                return -errno.EBADF, b""
            if cmd == Command.SOCK_SEND:
                data = _window(regions, msg).window_read(msg.offset, msg.length)
                return sock.send(data), b""
            if cmd == Command.SOCK_RECV:
                region = _window(regions, msg)
                data = sock.recv(msg.length)
                if data:
                    region.window_write(msg.offset, data)
                return len(data), b""
            if cmd == Command.SOCK_CLOSE:
                self._closed[handle] = self._sockets.pop(handle)
                sock.close()
                return 0, b""
            if cmd == Command.SOCK_IOCTL:
                sock.ioctl(*unpack_ioctl_body(msg.body))
                return 0, b""
        except RegionFault:
            return -errno.EFAULT, b""
        except OSError as exc:
            return -(exc.errno or errno.EIO), b""
        except (struct.error, ValueError, OverflowError):
            return -errno.EINVAL, b""
        return -errno.EINVAL, b""

    def _open(self, msg: Message) -> int:
        code, host, port = unpack_sock_open_body(msg.body)
        protocol = Protocol.TCP if code == SocketProtocolCode.TCP else Protocol.UDP
        try:
            sock = OsSocket(host, port, protocol)
        except OSError as exc:
            return -(exc.errno or errno.EIO)
        handle = self._next_handle
        self._next_handle += 1
        self._sockets[handle] = sock
        return handle

    def close_all(self) -> None:
        for sock in self._sockets.values():
            try:
                sock.close()
            except OSError:
                pass
        self._sockets.clear()
