"""Trusted-side runtime: application registry, execution environment and
the one class that answers a session's requests on either transport.

A ``TrustedRuntime`` maps its session's scratch region when it is
built: the forked process gets the scratch descriptor by fork
inheritance and the inline channel gets it from the session.
``dispatch`` turns each OPEN, INVOKE or CLOSE request into (status,
reply length); the request is the given length of bytes at scratch
offset 0, a ``protocol`` operation, and an INVOKE's reply, an operation
of its values, is staged there. The forked
process calls it once per request frame and the inline channel calls
it directly. Trusted application code never touches the OS directly.
Everything it may use hangs off the TrustedEnv handed to its entry
points: heap accounting against ``TA_MEMORY_LIMIT``, the relayed socket
facade, shared-region views and the monotonic clock.

There is one way out of the trusted side: ``TrustedEnv.rpc(command,
region_id, offset, length, handle) -> status``, called positionally with
the int command ids of ``protocol``. Every socket operation goes through
it, staging its payload or its packed arguments in the scratch first,
and ``protocol`` encodes every wire code.
"""

from __future__ import annotations

import enum
import sys
import traceback
from collections import namedtuple
from typing import Callable

from .. import clock
from ..core import TA_MEMORY_LIMIT, Protocol, SharedMode
from .errors import RegionFault, TaMemoryError, TeeSocketError
from .protocol import (
    CLOSE,
    INVOKE,
    NOOP_COMMAND,
    OPEN,
    SOCK_CLOSE,
    SOCK_ERROR,
    SOCK_IOCTL,
    SOCK_OPEN,
    SOCK_RECV,
    SOCK_SEND,
    IoctlCode,
    TeeResult,
    pack_invoke_body,
    pack_ioctl_body,
    pack_sock_open_body,
    unpack_invoke_body,
    unpack_open_body,
)
from .regions import RegionDescriptor, TrustedRegionView
from .supplicant import DISCARD_HANDLE

_TA_FACTORIES: dict[str, Callable[[], "object"]] = {}


def register_ta(name: str):
    """Class decorator adding a trusted application to the registry."""

    def wrap(cls):
        _TA_FACTORIES[name] = cls
        return cls

    return wrap


class SocketState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    ERROR = "error"


_FATAL_ERRNOS = {9, 32, 104, 107}  # EBADF, EPIPE, ECONNRESET, ENOTCONN
# checked before every send; an enum member lookup costs more than the check
_OPEN = SocketState.OPEN


class TeeSocket:
    """Trusted-side socket whose every operation is relayed outward.

    Payloads are staged through the session scratch region, which is
    mapped before any application code runs and never replaced, so a
    socket binds its staging method, region id, window length and the
    relay port once. A send that fits the window is one staging write
    and one relayed call, two world crossings; a larger one is a run of
    such one-window sends, one window-sized piece each. Operations on a
    CLOSED or ERROR socket fail deterministically without crossing the
    boundary.
    """

    def __init__(self, env: "TrustedEnv", handle: int):
        self.handle = handle
        self.state = SocketState.OPEN
        scratch = self._scratch = env.scratch
        self._stage = scratch.stage
        self._region_id = scratch.descriptor.region_id
        self._window = scratch.window_length
        self._rpc = env.rpc

    def _check_usable(self):
        if self.state is not _OPEN:
            raise TeeSocketError(9, f"socket is {self.state.value}")

    def _checked(self, status: int) -> int:
        """A relayed call's status, or its errno raised."""
        if status < 0:
            if -status in _FATAL_ERRNOS:
                self.state = SocketState.ERROR
            raise TeeSocketError(-status)
        return status

    def send(self, data) -> int:
        if self.state is not _OPEN:
            self._check_usable()  # raises
        # the window is in bytes, not items; a memoryview is not wrapped again
        n = (data if type(data) is memoryview else memoryview(data)).nbytes
        if 0 < n <= self._window:
            self._stage(data, n)
            status = self._rpc(SOCK_SEND, self._region_id, 0, n, self.handle)
            if status < 0:
                self._checked(status)  # raises
            return status
        if not n:
            return 0
        return self._send_pieces(data)

    def _send_pieces(self, data) -> int:
        """Relay a payload larger than the window as a run of one-window
        sends."""
        view = memoryview(data).cast("B")
        total, window, sent = len(view), self._window, 0
        while sent < total:
            piece = view[sent:sent + window]
            status = self.send(piece)
            sent += status
            if status < len(piece):
                break  # transport accepted less than staged; report actual
        return sent

    def recv(self, max_bytes: int) -> bytes:
        self._check_usable()
        if max_bytes < 0:  # refused before crossing, as socket.recv does
            raise ValueError("negative buffersize in recv")
        want = min(max_bytes, self._window)
        status = self._checked(self._rpc(
            SOCK_RECV, self._region_id, 0, want, self.handle))
        return self._scratch.read(0, status)

    def ioctl(self, code: IoctlCode, arg) -> None:
        self._check_usable()
        args = pack_ioctl_body(code, arg)
        self._stage(args, len(args))
        self._checked(self._rpc(SOCK_IOCTL, self._region_id, 0, len(args),
                                self.handle))

    def error(self) -> int:
        """Last OS errno recorded for this socket by the supplicant.

        Usable in any state; querying the error is the one operation a
        failed socket still supports.
        """
        return self._rpc(SOCK_ERROR, 0, 0, 0, self.handle)

    def close(self) -> None:
        if self.state is SocketState.CLOSED:
            raise TeeSocketError(9, "socket already closed")
        status = self._rpc(SOCK_CLOSE, 0, 0, 0, self.handle)
        self.state = SocketState.CLOSED
        if status < 0:
            raise TeeSocketError(-status)


class TrustedEnv:
    """Execution environment visible to trusted application code; ``rpc``
    is the relay port described in the module docstring."""

    def __init__(self, rpc, scratch: TrustedRegionView):
        self.rpc = rpc
        self.scratch = scratch
        self._used = 0

    # -- heap accounting ----------------------------------------------------

    def alloc(self, nbytes: int) -> None:
        """Reserve nbytes of the runtime heap budget or fail with OOM."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        if self._used + nbytes > TA_MEMORY_LIMIT:
            raise TaMemoryError(
                f"allocation of {nbytes} B exceeds the {TA_MEMORY_LIMIT} B runtime cap"
            )
        self._used += nbytes

    def free(self, nbytes: int) -> None:
        self._used = max(0, self._used - nbytes)

    # -- clock ---------------------------------------------------------------

    def monotonic(self) -> float:
        return clock.monotonic()

    # -- relayed sockets -----------------------------------------------------

    def open_socket(self, host: str, port: int, protocol: Protocol) -> TeeSocket:
        args = pack_sock_open_body(protocol, host, port)
        self.scratch.stage(args, len(args))
        status = self.rpc(SOCK_OPEN, self.scratch.descriptor.region_id, 0,
                          len(args), 0)
        if status < 0:
            raise TeeSocketError(-status)
        return TeeSocket(self, status)

    def discard_socket(self) -> TeeSocket:
        """Socket bound to the supplicant's built-in byte sink (handle 0)."""
        return TeeSocket(self, DISCARD_HANDLE)


# the region views and integer values passed along with one command
InvokeParams = namedtuple("InvokeParams", "regions values")


class TrustedRuntime:
    """Trusted end of one session: the application instance, its
    environment and the views of the regions shared with it.

    ``rpc`` is the session's relay port and ``scratch`` the descriptor
    of its scratch region, mapped here and handed to ``TrustedEnv``. Both
    transports call ``dispatch``, and both entry points, ``on_open`` and
    ``on_invoke``, run under one policy (``_enter``), so region caching,
    temporary revocation and error-to-status mapping are the same
    everywhere; an exception that policy does not map becomes GENERIC,
    with its traceback on stderr. A failed open gets no on_close: what
    the session shared goes with the session, when the process channel
    kills this process or the inline channel calls ``_revoke_all``.
    """

    def __init__(self, rpc, scratch: RegionDescriptor):
        self.env = TrustedEnv(rpc, TrustedRegionView(scratch))
        self.ta = None
        self._views: dict[int, TrustedRegionView] = {}

    def dispatch(self, command: int, length: int) -> tuple[int, int]:
        scratch = self.env.scratch
        try:
            if command == INVOKE:
                ta_command, region_descs, values = unpack_invoke_body(
                    scratch.read(0, length))
                status, out = self.handle_invoke(ta_command, region_descs, values)
                reply = pack_invoke_body(0, (), out)
                scratch.stage(reply, len(reply))
                return status, len(reply)
            if command == OPEN:
                return self.handle_open(*unpack_open_body(scratch.read(0, length))), 0
            if command == CLOSE:
                return self.handle_close(), 0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return TeeResult.GENERIC, 0
        return TeeResult.NOT_SUPPORTED, 0

    def _view_for(self, desc: RegionDescriptor) -> TrustedRegionView:
        if desc.mode is SharedMode.TEMPORARY:
            return TrustedRegionView(desc)  # fresh mapping per invocation
        view = self._views.get(desc.region_id)
        if view is None or view.revoked:
            view = TrustedRegionView(desc)
            self._views[desc.region_id] = view
        return view

    def _enter(self, region_descs: list[RegionDescriptor],
               entry: Callable) -> tuple[int, tuple[int, ...]]:
        """Call ``entry(views)``; it returns None (SUCCESS), a status or
        ``(status, values)``. Heap, region and socket failures become a
        status, and temporary views are revoked on the way out."""
        views = [self._view_for(d) for d in region_descs]
        try:
            result = entry(views)
            if result is None:
                return TeeResult.SUCCESS, ()
            if isinstance(result, tuple):
                status, out = result
                return status, tuple(out)
            return int(result), ()
        except MemoryError:
            return TeeResult.OUT_OF_MEMORY, ()
        except RegionFault:
            return TeeResult.ACCESS_FAULT, ()
        except TeeSocketError:
            return TeeResult.GENERIC, ()
        finally:
            for view in views:
                if view.descriptor.mode is SharedMode.TEMPORARY:
                    view.revoke()

    def handle_open(self, ta_name: str,
                    region_descs: list[RegionDescriptor]) -> int:
        factory = _TA_FACTORIES.get(ta_name)
        if factory is None:
            return TeeResult.NOT_FOUND
        self.ta = factory()
        on_open = getattr(self.ta, "on_open", None) or (lambda env, views: None)
        return self._enter(region_descs, lambda views: on_open(self.env, views))[0]

    def handle_invoke(self, ta_command: int,
                      region_descs: list[RegionDescriptor],
                      values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        def entry(views):
            if ta_command != NOOP_COMMAND:
                return self.ta.on_invoke(self.env, ta_command,
                                         InvokeParams(views, values))

        return self._enter(region_descs, entry)

    def handle_close(self) -> int:
        try:
            on_close = getattr(self.ta, "on_close", None)
            if on_close is not None:
                on_close(self.env)
        finally:
            self._revoke_all()
        return TeeResult.SUCCESS

    def _revoke_all(self) -> None:
        """Unmap every region shared with this session, scratch included."""
        for view in self._views.values():
            view.revoke()
        self._views.clear()
        self.env.scratch.revoke()
