"""Relay agent performing real OS socket work on behalf of the trusted side.

One supplicant serves one session. A relayed call's bytes, a payload
or the packed arguments of a SOCK_OPEN or SOCK_IOCTL, move only through
the session's scratch region: the call names them by (region, offset,
length), any other region id is EFAULT, and the answer is one int
status. A send on an open socket goes to the OS straight from a view of
the shared mapping, released before the call returns, so the one copy
of its payload in user space is the trusted side's into shared memory,
as on OP-TEE. A recv lands in such a view, taken before the socket is
read, so a recv whose span faults consumes nothing. The supplicant
keeps each handle's last OS errno, which SOCK_ERROR answers, also after
SOCK_CLOSE; a failure that is not an OS error, a fault or a malformed
request is EIO, so the relay stays in step. Handle 0 is an entry of the
same handle table, an always-open discard sink used by scripted
crossing-accounting runs: it answers like any socket, copying each send
out of shared memory and dropping it and answering recv with EOF.

``OsSocket`` is the one OS-socket surface of the package: the supplicant
maps each handle to one, and native (direct) runs use it as is.
"""

from __future__ import annotations

import errno
import socket
import struct
import sys
import traceback

from ..core import Protocol
from .errors import RegionFault
from .protocol import (
    SOCK_CLOSE,
    SOCK_ERROR,
    SOCK_IOCTL,
    SOCK_OPEN,
    SOCK_RECV,
    SOCK_SEND,
    IoctlCode,
    Message,
    unpack_ioctl_body,
    unpack_sock_open_body,
)

DISCARD_HANDLE = 0


def _staged(regions, msg: Message) -> bytes:
    """The packed arguments a relayed call staged in the window it names."""
    region = regions.get(msg[1])
    if region is None:
        raise RegionFault(f"region {msg[1]} is not shared with the session")
    return region.window_read(msg[2], msg[3])


class OsSocket:
    """Connected OS socket with the same surface as the relayed facade.

    An OS failure propagates as ``OSError``; over the relay the supplicant
    records its errno as the handle's last error.
    """

    def __init__(self, host: str, port: int, protocol: Protocol):
        self.protocol = protocol
        if protocol is Protocol.TCP:
            self.raw = socket.create_connection((host, port))
        else:
            self.raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                self.raw.connect((host, port))
            except OSError:
                self.raw.close()
                raise

    def send(self, data) -> int:
        return self.raw.send(data)

    def recv_into(self, buffer) -> int:
        return self.raw.recv_into(buffer)

    def ioctl(self, code: IoctlCode, arg) -> None:
        if code == IoctlCode.SET_BUF_SIZES:
            send_size, recv_size = arg
            self.raw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, send_size)
            self.raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_size)
        elif code != IoctlCode.SET_PEER:
            raise OSError(errno.EINVAL, f"unknown ioctl code {code}")
        elif self.protocol is not Protocol.UDP:
            raise OSError(errno.EOPNOTSUPP, "SET_PEER needs a UDP socket")
        else:
            self.raw.connect(arg)

    def close(self) -> None:
        self.raw.close()


class _DiscardSink:
    """Handle 0: ``OsSocket``'s surface over a sink that copies each send
    out of shared memory, then drops it, and reads EOF."""

    def send(self, data) -> int:
        return len(bytes(data))

    def recv_into(self, buffer) -> int:
        return 0

    def ioctl(self, code: IoctlCode, arg) -> None:
        pass

    def close(self) -> None:
        pass


class Supplicant:
    def __init__(self):
        self._sockets: dict[int, OsSocket] = {DISCARD_HANDLE: _DiscardSink()}
        self._errnos: dict[int, int] = {}  # last OS errno per handle, kept after close
        self._next_handle = 1

    def service(self, msg: Message, regions) -> int:
        """Execute one relayed call and return its status.

        ``regions`` maps region_id to an object with ``window_view``.
        Every handle in the table, the discard sink (handle 0) included,
        answers alike. Status is >= 0 on success (handle or byte count)
        and -errno on failure: the OS errno verbatim, EBADF for an unknown
        handle, EFAULT for a region id or window the session does not
        share, EINVAL for an unknown command or request arguments that do
        not decode or apply and EIO for any other failure, whose traceback
        goes to stderr. An OS errno is also kept as the handle's last
        error, which SOCK_ERROR answers.
        """
        cmd, region_id, offset, length, handle = msg
        sock = self._sockets.get(handle)
        try:
            if sock is not None and (cmd == SOCK_SEND or cmd == SOCK_RECV):
                # straight from or into the shared mapping, the window
                # checked first so a fault takes nothing from the socket;
                # released before the return so the region can be unmapped
                # (try/finally: a ``with`` costs three times as much here)
                region = regions.get(region_id)
                if region is None:
                    return -errno.EFAULT
                view = region.window_view(offset, length)
                try:
                    return sock.send(view) if cmd == SOCK_SEND else sock.recv_into(view)
                finally:
                    view.release()
            if cmd == SOCK_ERROR:
                return self._errnos.get(handle, 0)
            if cmd == SOCK_OPEN:
                return self._open(_staged(regions, msg))
            if sock is None:
                return -errno.EBADF
            if cmd == SOCK_CLOSE:
                if handle != DISCARD_HANDLE:  # the sink stays open
                    del self._sockets[handle]
                sock.close()
                return 0
            if cmd == SOCK_IOCTL:
                sock.ioctl(*unpack_ioctl_body(_staged(regions, msg)))
                return 0
        except RegionFault:
            return -errno.EFAULT
        except OSError as exc:
            err = self._errnos[handle] = exc.errno or errno.EIO
            return -err
        except (struct.error, ValueError, OverflowError):
            return -errno.EINVAL
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return -errno.EIO
        return -errno.EINVAL

    def _open(self, args: bytes) -> int:
        protocol, host, port = unpack_sock_open_body(args)
        try:
            sock = OsSocket(host, port, protocol)
        except OSError as exc:
            return -(exc.errno or errno.EIO)
        handle = self._next_handle
        self._next_handle += 1
        self._sockets[handle] = sock
        return handle

    def release(self) -> None:
        """Close every relayed socket; idempotent."""
        for sock in self._sockets.values():
            try:
                sock.close()
            except OSError:
                pass
        self._sockets.clear()
