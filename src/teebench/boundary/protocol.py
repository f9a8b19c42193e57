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
bytes are staged there: the OPEN and INVOKE operations, the INVOKE
reply, a relayed SOCK_SEND or SOCK_RECV payload and the packed arguments
of a relayed SOCK_OPEN or SOCK_IOCTL. A relayed call names its bytes by
(region_id, offset, length); OPEN, INVOKE and RETURN name the scratch
implicitly. Each message delivered is one world crossing.

OPEN, INVOKE and the INVOKE reply each stage one fixed 104-byte
operation, shaped as GlobalPlatform's ``TEEC_Operation``: a u32 TA
command, a u32 parameter-types word holding 4 bits per parameter (the
first in the low bits), then four 24-byte parameters::

    kind 0     unused
    kind 1-3   a value: that many u64s
    kind 4-6   a memory reference to a WHOLE, PARTIAL or TEMPORARY
               region: six u32s paired into three u64 words, low half
               first: (region id, owner pid), (fd, size),
               (window offset, window length)

The trusted side maps a reference's memory as ``/proc/<pid>/fd/<fd>``;
every invoke sends the full descriptor, so neither world keeps any
registration state. ``pack_invoke_body`` gives each region a reference,
then the values three to a parameter. More than four parameters, a
value that is not a u64 or a descriptor field that is not a u32 is a
``ValueError``, raised before anything crosses. OPEN's body is an
operation of its regions followed by the TA name; the INVOKE reply is an
operation of value parameters only, and a reply of length 0, as after a
trusted failure that stages nothing, holds no values. One precompiled
``struct.Struct`` packs and unpacks the whole block.

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
field layout for code that builds frames by hand.

This module is the codec: every code that goes on the wire is decided
here and nowhere else. The codecs take and return the package's own
types (``SharedMode`` as a parameter kind, ``Protocol`` in SOCK_OPEN
arguments), and a code they do not know is a ``ValueError``.
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


# --- the operation -------------------------------------------------------

OPERATION = struct.Struct("<II12Q")
OPERATION_SIZE = OPERATION.size  # 104 bytes
MAX_PARAMS = 4

_KIND_MODE = {4: SharedMode.WHOLE, 5: SharedMode.PARTIAL, 6: SharedMode.TEMPORARY}
_MODE_KIND = {mode: kind for kind, mode in _KIND_MODE.items()}

_U32_MASK = 0xFFFFFFFF
_PAD = (0,) * 12  # the words of the parameters an operation leaves unused
# the types of n values from the first parameter on: kind 3 for each full
# three, then kind n % 3
_VALUE_TYPES = [sum(min(3, n - at) << 4 * (at // 3) for at in range(0, n, 3))
                for n in range(3 * MAX_PARAMS + 1)]
_pack_operation = OPERATION.pack
_unpack_operation = OPERATION.unpack_from


def _decode(table: dict, code: int, what: str):
    value = table.get(code)
    if value is None:
        raise ValueError(f"unknown {what} code {code}")
    return value


def pack_invoke_body(ta_command: int, regions, values) -> bytes:
    """One operation: a memory reference per region descriptor, then the
    values, three to a value parameter. More than ``MAX_PARAMS``
    parameters, a value that is not a u64 or a descriptor field that is
    not a u32 is a ValueError."""
    n = len(values)
    if 3 * len(regions) + n > 3 * MAX_PARAMS:
        count = len(regions) + (n + 2) // 3
        raise ValueError(f"{count} parameters do not fit an operation's {MAX_PARAMS}")
    types, words = _VALUE_TYPES[n] << 4 * len(regions), ()
    for rid, pid, fd, size, mode, woff, wlen in regions:
        if (rid | pid | fd | size | woff | wlen) >> 32:
            raise ValueError(f"region {rid}'s descriptor has a field over u32")
        types |= _MODE_KIND[mode] << 4 * (len(words) // 3)
        words += (rid | pid << 32, fd | size << 32, woff | wlen << 32)
    try:  # the value parameters' words are the values in order, zero-padded
        return _pack_operation(ta_command, types, *words, *values,
                               *_PAD[len(words) + n:])
    except struct.error as exc:
        raise ValueError(f"an operation field does not fit: {exc}") from None


def unpack_invoke_body(body) -> tuple[int, list[RegionDescriptor], tuple[int, ...]]:
    """(ta_command, region descriptors, values) of the operation at the
    start of ``body``; an unknown parameter kind is a ValueError."""
    fields = _unpack_operation(body)
    types = fields[1]
    if types >> 4 * MAX_PARAMS:
        raise ValueError(f"parameter types {types:#x} name over {MAX_PARAMS} parameters")
    regions, values, at = [], (), 2
    while types:
        kind = types & 15
        if kind < 4:  # a value parameter of that many u64s; 0 is unused
            values += fields[at:at + kind]
        else:
            mode = _decode(_KIND_MODE, kind, "parameter kind")
            a, b, c = fields[at:at + 3]
            regions.append(RegionDescriptor(a & _U32_MASK, a >> 32, b & _U32_MASK,
                                            b >> 32, mode, c & _U32_MASK, c >> 32))
        types >>= 4
        at += 3
    return fields[0], regions, values


def pack_open_body(ta_name: str, regions) -> bytes:
    """OPEN's body: an operation of the regions, then the TA name."""
    return pack_invoke_body(0, regions, ()) + ta_name.encode()


def unpack_open_body(body: bytes) -> tuple[str, list[RegionDescriptor]]:
    return body[OPERATION_SIZE:].decode(), unpack_invoke_body(body)[1]


# --- the staged arguments of a relayed SOCK_OPEN or SOCK_IOCTL ----------

_PROTOCOL_CODE = {Protocol.TCP: 1, Protocol.UDP: 2}
_CODE_PROTOCOL = {v: k for k, v in _PROTOCOL_CODE.items()}


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
