"""Control-pipe wire protocol between the two worlds.

Every message starts with a fixed-width little-endian header::

    u32 command    one of Command below
    u32 region_id  region the payload lives in; 0 when none
    u64 offset     window-relative payload offset within that region
    u64 length     payload length, or body length when region_id == 0
    i64 status     requests: target socket handle for SOCK_* commands
                   replies:  result (TeeResult code, byte count, handle
                             or -errno, depending on the command)

When ``region_id == 0`` and ``length > 0``, exactly ``length`` bytes of
body follow the header; otherwise nothing does. A body is at most
``TA_MEMORY_LIMIT`` bytes: a header asking for more is rejected before
anything is read. Bulk payloads never ride the pipe: a relayed SOCK_SEND
or SOCK_RECV stages its payload in the session scratch region and names
it by (region_id, offset, length), and the RETURN to any relayed call
carries its status and no body. Each message delivered over the pipe is
one world crossing. An alternate supplicant that speaks this framing and
the SOCK_* command set below can replace the built-in one.

Sending a frame is one ``os.write`` of header plus body; reading one is
one ``os.read`` of the header, plus one read of the body when there is
one. Only a short read or write loops to finish the frame, and a frame
cut short by EOF reads as EOF. The per-frame path is kept short because
it runs twice per relayed call: ``write_message`` takes the header
fields positionally, a frame without a body is packed without a
concatenation, and ``read_message`` unpacks the header once and builds
the ``Message`` as the unpacked 5-tuple plus the body,
``fields + (body,)``. The OPEN and INVOKE body codecs are precompiled
``struct.Struct`` objects, one per value count for the INVOKE values.

This module is the codec: every code that goes on the wire is decided
here and nowhere else. The body codecs take and return the package's
own types (``SharedMode`` in a region descriptor, ``Protocol`` in a
SOCK_OPEN body), and a code they do not know is a ``ValueError``.
"""

from __future__ import annotations

import enum
import os
import struct
from typing import NamedTuple

from ..core import TA_MEMORY_LIMIT, Protocol, SharedMode
from .errors import BoundaryError
from .regions import RegionDescriptor

HEADER = struct.Struct("<IIQQq")
HEADER_SIZE = HEADER.size  # 32 bytes


class Command(enum.IntEnum):
    # session control, normal -> trusted
    OPEN = 1
    INVOKE = 2
    CLOSE = 3
    # completion of OPEN/INVOKE/CLOSE, trusted -> normal
    RETURN = 16
    # socket facade RPCs relayed to the supplicant, trusted -> normal
    SOCK_OPEN = 32
    SOCK_SEND = 33
    SOCK_RECV = 34
    SOCK_CLOSE = 35
    SOCK_IOCTL = 36
    SOCK_ERROR = 37


# The same ids as plain ints: dispatch on the relay path compares against
# these, which skips the enum attribute lookup.
(OPEN, INVOKE, CLOSE, RETURN, SOCK_OPEN, SOCK_SEND, SOCK_RECV, SOCK_CLOSE,
 SOCK_IOCTL, SOCK_ERROR) = map(int, Command)


class TeeResult(enum.IntEnum):
    SUCCESS = 0
    GENERIC = 1
    BAD_PARAMETERS = 2
    OUT_OF_MEMORY = 3
    ACCESS_FAULT = 4
    NOT_FOUND = 5
    BAD_STATE = 6
    NOT_SUPPORTED = 7


class IoctlCode(enum.IntEnum):
    SET_BUF_SIZES = 1           # arg: (send_bytes, recv_bytes), TCP and UDP
    SET_PEER = 2                # arg: (host, port), UDP only


# command id every trusted application answers without dispatching
NOOP_COMMAND = 0


class Message(NamedTuple):
    command: int
    region_id: int
    offset: int
    length: int
    status: int
    body: bytes = b""


# Bound once for the per-frame path. ``tuple.__new__`` builds a Message
# from a tuple of all six fields without running the NamedTuple's
# Python-level ``__new__``.
_pack_header = HEADER.pack
_unpack_header = HEADER.unpack
_new_tuple = tuple.__new__
_NO_BODY = (b"",)


def write_message(fd: int, command: int, region_id: int = 0, offset: int = 0,
                  length: int = 0, status: int = 0, body: bytes = b"") -> None:
    if body:
        if region_id != 0:
            raise ValueError("body and region reference are mutually exclusive")
        if len(body) > TA_MEMORY_LIMIT:
            raise ValueError(f"a {len(body)} B body is over the frame cap")
        data = _pack_header(command, region_id, offset, len(body), status) + body
    else:
        data = _pack_header(command, region_id, offset, length, status)
    n = os.write(fd, data)
    if n < len(data):
        view = memoryview(data)[n:]
        while view:
            view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        chunk = os.read(fd, n - got)
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_message(fd: int) -> Message | None:
    """Read one framed message; None on EOF, also inside a frame."""
    raw = os.read(fd, HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        if not raw:
            return None
        rest = _read_exact(fd, HEADER_SIZE - len(raw))
        if rest is None:
            return None
        raw += rest
    fields = _unpack_header(raw)
    if fields[1] or not fields[3]:  # a region reference, or no body
        return _new_tuple(Message, fields + _NO_BODY)
    length = fields[3]
    if length > TA_MEMORY_LIMIT:
        raise BoundaryError(f"a {length} B frame body is over the cap")
    body = _read_exact(fd, length)
    if body is None:
        return None
    return _new_tuple(Message, fields + (body,))


# --- body packing helpers ------------------------------------------------

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_REGION_DESC = struct.Struct("<IBQQQH")
_VALUES: dict[int, struct.Struct] = {}  # INVOKE values codec per count

_MODE_CODE = {SharedMode.WHOLE: 1, SharedMode.PARTIAL: 2, SharedMode.TEMPORARY: 3}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}
_PROTOCOL_CODE = {Protocol.TCP: 1, Protocol.UDP: 2}
_CODE_PROTOCOL = {v: k for k, v in _PROTOCOL_CODE.items()}


def _decode(table: dict, code: int, what: str):
    value = table.get(code)
    if value is None:
        raise ValueError(f"unknown {what} code {code}")
    return value


def _values_codec(n: int) -> struct.Struct:
    """Codec of a u8 count followed by ``n`` u64 values, built once per n."""
    codec = _VALUES.get(n)
    if codec is None:
        if n > 255:
            raise struct.error(f"{n} values do not fit the u8 count")
        codec = _VALUES[n] = struct.Struct(f"<B{n}Q")
    return codec


def pack_region_descriptor(desc: RegionDescriptor) -> bytes:
    path = desc.path.encode()
    return _REGION_DESC.pack(
        desc.region_id, _MODE_CODE[desc.mode], desc.size,
        desc.window_offset, desc.window_length, len(path),
    ) + path


def unpack_region_descriptor(buf: bytes, pos: int) -> tuple[RegionDescriptor, int]:
    rid, mode_code, size, woff, wlen, plen = _REGION_DESC.unpack_from(buf, pos)
    pos += _REGION_DESC.size
    path = buf[pos:pos + plen].decode()
    pos += plen
    desc = RegionDescriptor(
        region_id=rid, path=path, size=size,
        mode=_decode(_CODE_MODE, mode_code, "region mode"),
        window_offset=woff, window_length=wlen,
    )
    return desc, pos


def _pack_regions(descs) -> bytes:
    return _U8.pack(len(descs)) + b"".join(map(pack_region_descriptor, descs))


def _unpack_regions(buf: bytes, pos: int) -> tuple[list[RegionDescriptor], int]:
    (count,) = _U8.unpack_from(buf, pos)
    pos += 1
    descs = []
    for _ in range(count):
        desc, pos = unpack_region_descriptor(buf, pos)
        descs.append(desc)
    return descs, pos


def pack_open_body(ta_name: str, scratch: RegionDescriptor,
                   args_regions) -> bytes:
    name = ta_name.encode()
    return (_U16.pack(len(name)) + name
            + pack_region_descriptor(scratch) + _pack_regions(args_regions))


def unpack_open_body(body: bytes):
    (nlen,) = _U16.unpack_from(body, 0)
    name = body[2:2 + nlen].decode()
    scratch, pos = unpack_region_descriptor(body, 2 + nlen)
    regions, _ = _unpack_regions(body, pos)
    return name, scratch, regions


def pack_invoke_body(ta_command: int, regions, values) -> bytes:
    return _U32.pack(ta_command) + _pack_regions(regions) + pack_values(values)


def unpack_invoke_body(body: bytes):
    (ta_command,) = _U32.unpack_from(body, 0)
    regions, pos = _unpack_regions(body, 4)
    return ta_command, regions, unpack_values(body, pos)


def pack_values(values) -> bytes:
    n = len(values)
    return _values_codec(n).pack(n, *values)


def unpack_values(body: bytes, pos: int = 0) -> tuple[int, ...]:
    if pos == len(body):
        return ()
    (n,) = _U8.unpack_from(body, pos)
    return _values_codec(n).unpack_from(body, pos)[1:]


def pack_sock_open_body(protocol: Protocol, host: str, port: int) -> bytes:
    return struct.pack("<BH", _PROTOCOL_CODE[protocol], port) + host.encode()


def unpack_sock_open_body(body: bytes) -> tuple[Protocol, str, int]:
    code, port = struct.unpack_from("<BH", body, 0)
    return _decode(_CODE_PROTOCOL, code, "socket protocol"), body[3:].decode(), port


def pack_ioctl_body(code: int, arg) -> bytes:
    if code == IoctlCode.SET_BUF_SIZES:
        send_size, recv_size = arg
        return struct.pack("<IQQ", code, send_size, recv_size)
    if code == IoctlCode.SET_PEER:
        host, port = arg
        return struct.pack("<IH", code, port) + host.encode()
    raise ValueError(f"unknown ioctl code {code}")


def unpack_ioctl_body(body: bytes):
    (code,) = struct.unpack_from("<I", body, 0)
    if code == IoctlCode.SET_BUF_SIZES:
        send_size, recv_size = struct.unpack_from("<QQ", body, 4)
        return code, (send_size, recv_size)
    if code == IoctlCode.SET_PEER:
        (port,) = struct.unpack_from("<H", body, 4)
        return code, (body[6:].decode(), port)
    return code, None
