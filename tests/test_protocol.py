import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from teebench.boundary.errors import BoundaryError
from teebench.boundary.protocol import (
    Command,
    HEADER,
    HEADER_SIZE,
    IoctlCode,
    Message,
    pack_invoke_body,
    pack_ioctl_body,
    pack_open_body,
    pack_region_descriptor,
    pack_sock_open_body,
    pack_values,
    read_message,
    unpack_invoke_body,
    unpack_ioctl_body,
    unpack_open_body,
    unpack_region_descriptor,
    unpack_sock_open_body,
    unpack_values,
    write_message,
)
from teebench.boundary.regions import RegionDescriptor
from teebench.core import Protocol, SharedMode


@pytest.fixture
def pipe():
    r, w = os.pipe()
    yield r, w
    for fd in (r, w):
        try:
            os.close(fd)
        except OSError:
            pass


def test_header_is_32_bytes_little_endian(pipe):
    r, w = pipe
    write_message(w, 1, region_id=2, offset=3, length=4, status=5)
    raw = os.read(r, 64)
    assert len(raw) == HEADER_SIZE == 32
    assert raw == (
        b"\x01\x00\x00\x00"                  # u32 command
        b"\x02\x00\x00\x00"                  # u32 region_id
        b"\x03\x00\x00\x00\x00\x00\x00\x00"  # u64 offset
        b"\x04\x00\x00\x00\x00\x00\x00\x00"  # u64 length
        b"\x05\x00\x00\x00\x00\x00\x00\x00"  # i64 status
    )


def test_round_trip(pipe):
    r, w = pipe
    write_message(w, Command.SOCK_SEND, region_id=3, offset=64, length=4096,
                  status=7)
    msg = read_message(r)
    assert msg.region_id == 3 and msg.offset == 64 and msg.length == 4096
    assert msg.status == 7               # request status carries the handle
    write_message(w, Command.RETURN, length=5, status=-104)
    assert read_message(r) == Message(Command.RETURN, 0, 0, 5, -104)


def test_every_frame_is_one_header_and_nothing_else(pipe):
    r, w = pipe
    # a length names bytes staged in shared memory: none of them follow
    write_message(w, Command.INVOKE, length=2**40)
    write_message(w, Command.RETURN, status=1)
    assert len(os.read(r, 4 * HEADER_SIZE)) == 2 * HEADER_SIZE


def test_write_message_takes_no_body():
    with pytest.raises(TypeError):
        write_message(1, Command.RETURN, 0, 0, 0, 0, b"oops")


def test_eof_returns_none(pipe):
    r, w = pipe
    os.close(w)
    assert read_message(r) is None


def test_back_to_back_frames_read_one_header_per_call(pipe):
    r, w = pipe
    for status in range(3):
        write_message(w, Command.RETURN, status=status)
    assert [read_message(r).status for _ in range(3)] == [0, 1, 2]


def test_message_is_an_immutable_five_field_tuple():
    assert Message._fields == ("command", "region_id", "offset", "length",
                               "status")
    msg = Message(33, 1, 0, 8, 0)
    with pytest.raises(AttributeError):
        msg.status = 1


@settings(max_examples=50, deadline=None)
@given(cut=st.integers(1, HEADER_SIZE - 1))
def test_a_frame_shorter_than_a_header_is_a_boundary_error(cut):
    raw = HEADER.pack(Command.RETURN, 0, 0, 0, 0)
    r, w = os.pipe()
    try:
        os.write(w, raw[:cut])
        os.close(w)
        with pytest.raises(BoundaryError, match=f"a {cut} B frame"):
            read_message(r)
    finally:
        os.close(r)


def desc(region_id=9, mode=SharedMode.PARTIAL):
    return RegionDescriptor(region_id=region_id, path="/dev/shm/teebench-x",
                            size=8192, mode=mode, window_offset=4096,
                            window_length=4096)


def test_region_descriptor_round_trip():
    packed = pack_region_descriptor(desc())
    out, pos = unpack_region_descriptor(packed, 0)
    assert out == desc()
    assert pos == len(packed)


def test_open_body_round_trip():
    body = pack_open_body("traffic", [desc(2), desc(3, SharedMode.TEMPORARY)])
    name, regions = unpack_open_body(body)
    assert name == "traffic"
    assert [r.region_id for r in regions] == [2, 3]
    assert regions[1].mode is SharedMode.TEMPORARY


def test_invoke_body_round_trip():
    body = pack_invoke_body(4, [desc()], (0, 2**63, 2**64 - 1))
    command, regions, values = unpack_invoke_body(body)
    assert command == 4
    assert regions == [desc()]
    assert tuple(values) == (0, 2**63, 2**64 - 1)


def test_open_and_invoke_bodies_keep_their_wire_bytes():
    # region descriptor: u32 id, u8 mode, u64 size, u64 window offset,
    # u64 window length, u16 path length, path
    temp = RegionDescriptor(region_id=6, path="/t", size=8192,
                            mode=SharedMode.TEMPORARY, window_offset=4096,
                            window_length=4096)
    assert pack_open_body("kv", [temp]) == bytes.fromhex(
        "0200 6b76"
        "01"
        "06000000 03 0020000000000000 0010000000000000 0010000000000000 0200 2f74")
    partial = dataclasses.replace(temp, mode=SharedMode.PARTIAL)
    assert pack_invoke_body(3, [partial], (1, 2**64 - 1)) == bytes.fromhex(
        "03000000"
        "01"
        "06000000 02 0020000000000000 0010000000000000 0010000000000000 0200 2f74"
        "02 0100000000000000 ffffffffffffffff")


def test_values_round_trip():
    assert unpack_values(pack_values(())) == ()
    assert unpack_values(pack_values((7, 8))) == (7, 8)
    assert unpack_values(b"") == ()


def test_sock_open_body_round_trip():
    protocol, host, port = unpack_sock_open_body(
        pack_sock_open_body(Protocol.UDP, "10.1.2.3", 5201))
    assert (protocol, host, port) == (Protocol.UDP, "10.1.2.3", 5201)


def test_unknown_region_mode_code_does_not_decode():
    buf = bytearray(pack_region_descriptor(desc()))
    buf[4] = 9  # the u8 mode follows the u32 region id
    with pytest.raises(ValueError, match="region mode code 9"):
        unpack_region_descriptor(bytes(buf), 0)


def test_unknown_socket_protocol_code_does_not_decode():
    with pytest.raises(ValueError, match="socket protocol code 7"):
        unpack_sock_open_body(b"\x07\x51\x14" + b"10.1.2.3")


def test_ioctl_bodies_round_trip():
    code, arg = unpack_ioctl_body(
        pack_ioctl_body(IoctlCode.SET_BUF_SIZES, (131072, 65536)))
    assert code == IoctlCode.SET_BUF_SIZES and arg == (131072, 65536)
    code, arg = unpack_ioctl_body(
        pack_ioctl_body(IoctlCode.SET_PEER, ("127.0.0.1", 9999)))
    assert code == IoctlCode.SET_PEER and arg == ("127.0.0.1", 9999)
