"""Trusted application owned by the benchmark, added through the public
``register_ta`` so that no file of the package is edited.

It gives the benchmark two things the built-in applications do not: a
relayed send of one chunk per invocation (the open-loop relay op) and N
relayed sends to the supplicant's discard sink per invocation (the
``boundary.discard_send_us`` layer probe).
"""

from __future__ import annotations

import enum

from teebench.boundary import IoctlCode, TeeResult, register_ta
from teebench.core import DEFAULT_SOCKET_BUFFER, Protocol
from teebench.traffic import fill_dummy_buffer

TA_NAME = "bench"


class BenchCommand(enum.IntEnum):
    DISCARD = 1     # values (count, size): count sends of size bytes to handle 0
    CONNECT = 2     # values (port, size, seed): TCP socket to 127.0.0.1:port
    SEND = 3        # values (count,): send the seeded payload count times
    DISCONNECT = 4


# relayed socket calls CONNECT and DISCONNECT make: open, ioctl / close
CONNECT_RPCS = 2
DISCONNECT_RPCS = 1


@register_ta(TA_NAME)
class BenchTa:
    def __init__(self):
        self._sock = None
        self._payload = b""

    def on_invoke(self, env, command, params):
        if command == BenchCommand.DISCARD:
            count, size = params.values
            env.alloc(size)
            try:
                payload = bytes(size)
                sock = env.discard_socket()
                for _ in range(count):
                    sock.send(payload)
            finally:
                env.free(size)
            return TeeResult.SUCCESS

        if command == BenchCommand.CONNECT:
            port, size, seed = params.values
            env.alloc(size)
            self._payload = fill_dummy_buffer(size, seed)
            self._sock = env.open_socket("127.0.0.1", port, Protocol.TCP)
            self._sock.ioctl(IoctlCode.SET_BUF_SIZES,
                             (DEFAULT_SOCKET_BUFFER, DEFAULT_SOCKET_BUFFER))
            return TeeResult.SUCCESS

        if command == BenchCommand.SEND:
            (count,) = params.values
            calls = 0
            for _ in range(count):
                view = memoryview(self._payload)
                while view:
                    sent = self._sock.send(view)
                    if sent <= 0:
                        return TeeResult.GENERIC, (calls,)
                    view = view[sent:]
                    calls += 1
            return TeeResult.SUCCESS, (calls,)

        if command == BenchCommand.DISCONNECT:
            self._sock.close()
            env.free(len(self._payload))
            return TeeResult.SUCCESS

        return TeeResult.NOT_SUPPORTED
