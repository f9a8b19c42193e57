"""Wire protocol between the two worlds.

Every message is one fixed-width little-endian header and nothing else::

    u32 command    one of Command below
    u32 region_id  region the request's bytes live in; 0 when none
    u64 offset     window-relative offset of those bytes in that region
    u64 length     how many bytes the request or reply has staged
    i64 status     requests: target socket handle for SOCK_* commands
                   replies:  result (TeeResult code, byte count, handle
                             or -errno, depending on the command)

No frame carries a body. As on OP-TEE, where a call's arguments sit in
shared memory (``struct optee_msg_arg``) and the SMC carries only a
reference to them, every variable-sized argument or reply lives in the
session scratch region at window offset 0, and ``length`` says how many
bytes are staged there: the OPEN and INVOKE bodies, the INVOKE reply's
values, a relayed SOCK_SEND or SOCK_RECV payload and the packed
arguments of a relayed SOCK_OPEN or SOCK_IOCTL. A relayed call names
its bytes by (region_id, offset, length); OPEN, INVOKE and RETURN name
the scratch implicitly. Each message delivered is one world crossing.

The process channel (``context``) carries a frame in a header slot of a
page both worlds map, packed with ``HEADER.pack_into`` and read with
``HEADER.unpack_from``. ``write_message`` and ``read_message`` here frame
the same header on a pipe: sending is one ``os.write`` of its 32 bytes,
atomic as it is under ``PIPE_BUF``, reading is one ``os.read``, EOF
reads as None and a read shorter than a header is a ``BoundaryError``;
the benchmark's frame probe and the tests use them. On both carriers
the per-frame path is kept short because it runs twice per relayed
call: the writer takes the header fields positionally, and the reader
returns the unpacked header as the exact 5-tuple ``struct`` builds, in
``Message``'s field order. An exact ``tuple`` is
what CPython 3.11 specialises unpacking and indexing for; a ``Message``,
a tuple subclass, would cost about 0.3 µs more to build and slow every
unpack and index of it on both sides of the relay. ``Message`` names the
field layout for code that builds frames by hand. The OPEN and INVOKE
body codecs are precompiled ``struct.Struct`` objects, one per value
count for the INVOKE values.

This module is the codec: every code that goes on the wire is decided
here and nowhere else. The body codecs take and return the package's
own types (``SharedMode`` in a region descriptor, ``Protocol`` in
SOCK_OPEN arguments), and a code they do not know is a ``ValueError``.
"""

from __future__ import annotations

import enum
import os
import struct
from typing import NamedTuple

from ..core import Protocol, SharedMode
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
    """The header's field layout; ``read_message`` returns a bare tuple
    in this order."""

    command: int
    region_id: int
    offset: int
    length: int
    status: int


# Bound once for the per-frame path.
_pack_header = HEADER.pack
_unpack_header = HEADER.unpack


def write_message(fd: int, command: int, region_id: int = 0, offset: int = 0,
                  length: int = 0, status: int = 0) -> None:
    os.write(fd, _pack_header(command, region_id, offset, length, status))


def read_message(fd: int) -> tuple[int, int, int, int, int] | None:
    """Read one frame as its bare header tuple, fields in ``Message``'s
    order; None on EOF."""
    raw = os.read(fd, HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        if not raw:
            return None
        raise BoundaryError(f"a {len(raw)} B frame is shorter than a header")
    return _unpack_header(raw)


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
            raise ValueError(f"{n} values do not fit the u8 count")
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


def pack_open_body(ta_name: str, args_regions) -> bytes:
    name = ta_name.encode()
    return _U16.pack(len(name)) + name + _pack_regions(args_regions)


def unpack_open_body(body: bytes):
    (nlen,) = _U16.unpack_from(body, 0)
    regions, _ = _unpack_regions(body, 2 + nlen)
    return body[2:2 + nlen].decode(), regions


def pack_invoke_body(ta_command: int, regions, values) -> bytes:
    return _U32.pack(ta_command) + _pack_regions(regions) + pack_values(values)


def unpack_invoke_body(body: bytes):
    (ta_command,) = _U32.unpack_from(body, 0)
    regions, pos = _unpack_regions(body, 4)
    return ta_command, regions, unpack_values(body, pos)


def pack_values(values) -> bytes:
    """A u8 count and that many u64 values; any other value is a ValueError."""
    n = len(values)
    try:
        return _values_codec(n).pack(n, *values)
    except struct.error as exc:
        raise ValueError(f"INVOKE values must be u64 integers: {exc}") from None


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
