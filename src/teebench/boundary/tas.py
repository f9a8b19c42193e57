"""Built-in trusted applications.

``traffic`` runs the measurement engine against the relayed socket
facade, reading its run configuration from the first shared region and
writing metrics to the second (both length-prefixed JSON). ``kv`` hosts
the key-value store behind PUT/GET/DEL commands addressing (offset,
length) windows of a shared data region. ``probe`` exists for scripted
accounting and lifetime tests.
"""

from __future__ import annotations

import enum
import json
import struct

from ..core import Protocol, RunConfig
from ..kvstore import KvStore
from ..traffic import run_measurement
from .protocol import IoctlCode, TeeResult
from .trusted import InvokeParams, TrustedEnv, register_ta

_LEN = struct.Struct("<I")


def write_json(write, payload: dict) -> None:
    """Store ``payload`` as length-prefixed JSON through ``write(offset,
    data)``: a region's ``window_write`` or a trusted view's ``write``."""
    data = json.dumps(payload).encode()
    write(0, _LEN.pack(len(data)) + data)


def read_json(read) -> dict:
    """Inverse of ``write_json`` through ``read(offset, length)``."""
    (length,) = _LEN.unpack(read(0, _LEN.size))
    return json.loads(read(_LEN.size, length).decode())


class TrafficCommand(enum.IntEnum):
    RUN = 1


@register_ta("traffic")
class TrafficTa:
    """Measurement engine behind the boundary; the client analog blocks
    while this runs."""

    def on_invoke(self, env: TrustedEnv, command: int, params: InvokeParams):
        if command != TrafficCommand.RUN:
            return TeeResult.NOT_SUPPORTED
        if len(params.regions) != 2:
            return TeeResult.BAD_PARAMETERS
        args_view, metrics_view = params.regions
        cfg = RunConfig.from_dict(read_json(args_view.read))
        metrics = run_measurement(cfg, env=env)
        write_json(metrics_view.write, metrics.to_dict())
        return TeeResult.SUCCESS


class KvCommand(enum.IntEnum):
    PUT = 1
    GET = 2
    DEL = 3


@register_ta("kv")
class KvTa:
    """Key-value store servicing (offset, length) windows of the shared
    data region; values count against the runtime heap budget."""

    def __init__(self):
        self.store = KvStore()
        self._session_region = None

    def on_open(self, env: TrustedEnv, regions) -> None:
        if regions:
            self._session_region = regions[0]

    def _data_region(self, params: InvokeParams):
        if params.regions:
            return params.regions[0]
        return self._session_region

    def on_invoke(self, env: TrustedEnv, command: int, params: InvokeParams):
        region = self._data_region(params)
        if region is None:
            return TeeResult.BAD_PARAMETERS

        if command == KvCommand.PUT:
            key, offset, length = params.values
            value = region.read(offset, length)
            old = self.store.get(key)
            env.alloc(len(value))
            try:
                self.store.put(key, value)
            except Exception:
                env.free(len(value))
                raise
            if old is not None:
                env.free(len(old))
            return TeeResult.SUCCESS

        if command == KvCommand.GET:
            key, offset = params.values
            value = self.store.get(key)
            if value is None:
                return TeeResult.NOT_FOUND
            region.write(offset, value)
            return TeeResult.SUCCESS, (len(value),)

        if command == KvCommand.DEL:
            (key,) = params.values
            value = self.store.get(key)
            if value is None:
                return TeeResult.NOT_FOUND
            self.store.delete(key)
            env.free(len(value))
            return TeeResult.SUCCESS

        return TeeResult.NOT_SUPPORTED


class ProbeCommand(enum.IntEnum):
    SEND_DISCARD = 1
    ALLOC = 2
    TOUCH = 3
    STASH = 4
    TOUCH_STASHED = 5
    SOCKET_SMOKE = 6
    UDP_RETARGET = 7
    OPEN_ERRNO = 8


class TouchOp(enum.IntEnum):
    READ = 0
    WRITE = 1


def _touch(view, op: int, offset: int, length: int) -> None:
    """Read, or fill with 0xab, ``length`` bytes of ``view`` at ``offset``."""
    if op == TouchOp.READ:
        view.read(offset, length)
    else:
        view.write(offset, b"\xab" * length)


@register_ta("probe")
class ProbeTa:
    """Test affordances: scripted relayed sends against the discard sink,
    heap probing and shared-region lifetime checks."""

    def __init__(self):
        self._stashed = None

    def on_open(self, env: TrustedEnv, regions) -> None:
        # keep a handle to any region piggybacked on session creation so
        # later invocations can probe its lifetime
        if regions:
            self._stashed = regions[0]

    def on_invoke(self, env: TrustedEnv, command: int, params: InvokeParams):
        if command == ProbeCommand.SEND_DISCARD:
            count, size = params.values
            env.alloc(size)
            try:
                payload = bytes(size)
                sock = env.discard_socket()
                total = 0
                for _ in range(count):
                    total += sock.send(payload)
            finally:
                env.free(size)
            return TeeResult.SUCCESS, (total,)

        if command == ProbeCommand.ALLOC:
            (nbytes,) = params.values
            env.alloc(nbytes)  # held until session close, on purpose
            return TeeResult.SUCCESS

        if command == ProbeCommand.TOUCH:
            _touch(params.regions[0], *params.values)
            return TeeResult.SUCCESS

        if command == ProbeCommand.STASH:
            self._stashed = params.regions[0]
            return TeeResult.SUCCESS

        if command == ProbeCommand.TOUCH_STASHED:
            if self._stashed is None:
                return TeeResult.BAD_STATE
            _touch(self._stashed, *params.values)
            return TeeResult.SUCCESS

        if command == ProbeCommand.SOCKET_SMOKE:
            port, count, size, proto_code, bufsize = params.values
            protocol = Protocol.TCP if proto_code == 1 else Protocol.UDP
            env.alloc(size)
            try:
                payload = bytes(size)
                sock = env.open_socket("127.0.0.1", port, protocol)
                if bufsize:
                    sock.ioctl(IoctlCode.SET_BUF_SIZES, (bufsize, bufsize))
                total = 0
                for _ in range(count):
                    total += sock.send(payload)
                sock.close()
            finally:
                env.free(size)
            return TeeResult.SUCCESS, (total,)

        if command == ProbeCommand.UDP_RETARGET:
            port_a, port_b, size = params.values
            env.alloc(size)
            try:
                payload = bytes(size)
                sock = env.open_socket("127.0.0.1", port_a, Protocol.UDP)
                sent_a = sock.send(payload)
                sock.ioctl(IoctlCode.SET_PEER, ("127.0.0.1", port_b))
                sent_b = sock.send(payload)
                sock.close()
            finally:
                env.free(size)
            return TeeResult.SUCCESS, (sent_a, sent_b)

        if command == ProbeCommand.OPEN_ERRNO:
            (port,) = params.values
            try:
                sock = env.open_socket("127.0.0.1", port, Protocol.TCP)
            except OSError as exc:
                return TeeResult.SUCCESS, (exc.errno,)
            sock.close()
            return TeeResult.SUCCESS, (0,)

        return TeeResult.NOT_SUPPORTED
