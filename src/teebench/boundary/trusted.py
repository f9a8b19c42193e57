"""Trusted-side runtime: application registry, execution environment and
the one class that answers a session's requests on either transport.

``TrustedRuntime.dispatch`` turns each OPEN, INVOKE or CLOSE request into
(status, reply body); the forked process calls it once per pipe message
and the inline channel calls it directly. Trusted application code never
touches the OS directly. Everything it may use hangs off the TrustedEnv
handed to its entry points: heap accounting against ``TA_MEMORY_LIMIT``,
the relayed socket facade, shared-region views and the monotonic clock.
"""

from __future__ import annotations

import enum
import sys
import traceback
from typing import Callable

from .. import clock
from ..core import TA_MEMORY_LIMIT, Protocol
from .errors import RegionFault, TaMemoryError, TeeSocketError
from .protocol import (
    SOCK_SEND,
    Command,
    IoctlCode,
    NOOP_COMMAND,
    TeeResult,
    SocketProtocolCode,
    pack_ioctl_body,
    pack_sock_open_body,
    pack_values,
    unpack_invoke_body,
    unpack_open_body,
)
from .regions import Lifetime, RegionDescriptor, TrustedRegionView
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

    Payloads are staged through the session scratch region; each relayed
    call costs two world crossings. Operations on a CLOSED or ERROR
    socket fail deterministically without crossing the boundary.
    """

    def __init__(self, env: "TrustedEnv", handle: int, protocol: Protocol):
        self._env = env
        self.handle = handle
        self.protocol = protocol
        self.state = SocketState.OPEN

    def _check_usable(self):
        if self.state is not _OPEN:
            raise TeeSocketError(9, f"socket is {self.state.value}")

    def _fail(self, err: int):
        if err in _FATAL_ERRNOS:
            self.state = SocketState.ERROR
        raise TeeSocketError(err)

    def send(self, data) -> int:
        self._check_usable()
        view = memoryview(data)
        total = len(view)
        scratch = self._env.scratch
        write = scratch.write
        region_id = scratch.descriptor.region_id
        window = scratch.window_length
        rpc = self._env._rpc
        handle = self.handle
        sent = 0
        while sent < total:
            piece = view[sent:sent + window]
            staged = len(piece)
            write(0, piece)
            status = rpc(SOCK_SEND, region_id, 0, staged, handle, b"")
            if status < 0:
                self._fail(-status)
            sent += status
            if status < staged:
                break  # transport accepted less than staged; report actual
        return sent

    def recv(self, max_bytes: int) -> bytes:
        self._check_usable()
        scratch = self._env.scratch
        want = min(max_bytes, scratch.window_length)
        status = self._env.relay(
            Command.SOCK_RECV,
            region_ref=(scratch.descriptor.region_id, 0, want),
            handle=self.handle,
        )
        if status < 0:
            self._fail(-status)
        return scratch.read(0, status)

    def ioctl(self, code: IoctlCode, arg) -> None:
        self._check_usable()
        status = self._env.relay(
            Command.SOCK_IOCTL, body=pack_ioctl_body(code, arg), handle=self.handle
        )
        if status < 0:
            self._fail(-status)

    def error(self) -> int:
        """Last OS errno recorded for this socket by the supplicant.

        Usable in any state; querying the error is the one operation a
        failed socket still supports.
        """
        return self._env.relay(Command.SOCK_ERROR, handle=self.handle)

    def close(self) -> None:
        if self.state is SocketState.CLOSED:
            raise TeeSocketError(9, "socket already closed")
        status = self._env.relay(Command.SOCK_CLOSE, handle=self.handle)
        self.state = SocketState.CLOSED
        if status < 0:
            raise TeeSocketError(-status)


class TrustedEnv:
    """Execution environment visible to trusted application code."""

    def __init__(self, rpc):
        self._rpc = rpc
        self._used = 0
        self.scratch: TrustedRegionView | None = None

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

    def relay(self, command, *, region_ref=None, body=b"", handle=0) -> int:
        """One relayed socket call; returns the supplicant's status."""
        region_id, offset, length = region_ref or (0, 0, 0)
        return self._rpc(command, region_id, offset, length, handle, body)

    def open_socket(self, host: str, port: int, protocol: Protocol) -> TeeSocket:
        code = (
            SocketProtocolCode.TCP
            if protocol is Protocol.TCP
            else SocketProtocolCode.UDP
        )
        status = self.relay(
            Command.SOCK_OPEN, body=pack_sock_open_body(code, host, port)
        )
        if status < 0:
            raise TeeSocketError(-status)
        return TeeSocket(self, status, protocol)

    def discard_socket(self) -> TeeSocket:
        """Socket bound to the supplicant's built-in byte sink (handle 0)."""
        return TeeSocket(self, DISCARD_HANDLE, Protocol.TCP)


class InvokeParams:
    """Regions and integer values passed along with one command."""

    def __init__(self, regions: list[TrustedRegionView], values: tuple[int, ...]):
        self.regions = regions
        self.values = values


class TrustedRuntime:
    """Trusted end of one session: the application instance, its
    environment and the views of the regions shared with it.

    ``rpc(command, region_id, offset, length, handle, body)`` relays one
    socket call to the normal world and returns its status. Both
    transports call ``dispatch``, so region caching, temporary revocation
    and error-to-status mapping are the same in both; an exception the
    handlers do not map becomes GENERIC, with its traceback on stderr.
    """

    def __init__(self, rpc):
        self.env = TrustedEnv(rpc)
        self.ta = None
        self._views: dict[int, TrustedRegionView] = {}

    def dispatch(self, command: int, body: bytes) -> tuple[int, bytes]:
        try:
            if command == Command.OPEN:
                return self.handle_open(*unpack_open_body(body)), b""
            if command == Command.INVOKE:
                ta_command, region_descs, values = unpack_invoke_body(body)
                status, out = self.handle_invoke(ta_command, region_descs, values)
                return status, pack_values(out)
            if command == Command.CLOSE:
                return self.handle_close(), b""
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return TeeResult.GENERIC, b""
        return TeeResult.NOT_SUPPORTED, b""

    def _view_for(self, desc: RegionDescriptor) -> TrustedRegionView:
        if desc.lifetime is Lifetime.INVOCATION_BOUND:
            return TrustedRegionView(desc)  # fresh mapping per invocation
        view = self._views.get(desc.region_id)
        if view is None or view.revoked:
            view = TrustedRegionView(desc)
            self._views[desc.region_id] = view
        return view

    def handle_open(self, ta_name: str, scratch_desc: RegionDescriptor,
                    region_descs: list[RegionDescriptor]) -> int:
        factory = _TA_FACTORIES.get(ta_name)
        if factory is None:
            return TeeResult.NOT_FOUND
        self.ta = factory()
        self.env.scratch = TrustedRegionView(scratch_desc)
        views = [self._view_for(d) for d in region_descs]
        temporaries = [v for v in views if v.descriptor.lifetime is Lifetime.INVOCATION_BOUND]
        try:
            on_open = getattr(self.ta, "on_open", None)
            if on_open is not None:
                on_open(self.env, views)
            return TeeResult.SUCCESS
        except Exception:
            return TeeResult.GENERIC
        finally:
            for view in temporaries:
                view.revoke()

    def handle_invoke(self, ta_command: int,
                      region_descs: list[RegionDescriptor],
                      values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        views = [self._view_for(d) for d in region_descs]
        temporaries = [v for v in views if v.descriptor.lifetime is Lifetime.INVOCATION_BOUND]
        try:
            if ta_command == NOOP_COMMAND:
                return TeeResult.SUCCESS, ()
            result = self.ta.on_invoke(self.env, ta_command, InvokeParams(views, values))
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
            for view in temporaries:
                view.revoke()

    def handle_close(self) -> int:
        try:
            on_close = getattr(self.ta, "on_close", None)
            if on_close is not None:
                on_close(self.env)
        finally:
            for view in self._views.values():
                view.revoke()
            self._views.clear()
            if self.env.scratch is not None:
                self.env.scratch.revoke()
        return TeeResult.SUCCESS
