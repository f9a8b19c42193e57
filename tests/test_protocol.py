import os

import pytest
from hypothesis import given, settings, strategies as st

from teebench.boundary.errors import BoundaryError
from teebench.boundary.protocol import (
    Command,
    HEADER,
    HEADER_SIZE,
    MAX_PARAMS,
    OPERATION,
    OPERATION_SIZE,
    IoctlCode,
    Message,
    pack_invoke_body,
    pack_ioctl_body,
    pack_open_body,
    pack_sock_open_body,
    read_message,
    unpack_invoke_body,
    unpack_ioctl_body,
    unpack_open_body,
    unpack_sock_open_body,
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
    # a request's status field carries the target socket handle
    assert read_message(r) == Message(Command.SOCK_SEND, 3, 64, 4096, 7)
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
    assert [read_message(r) for _ in range(3)] == [
        Message(Command.RETURN, 0, 0, 0, status) for status in range(3)]


def test_read_message_returns_an_exact_tuple(pipe):
    # CPython specialises unpacking and indexing only for an exact tuple;
    # a Message (a tuple subclass) costs about 0.3 us more to build and
    # slows every unpack and index of a frame on both sides of the relay
    r, w = pipe
    write_message(w, Command.SOCK_SEND, 1, 0, 8, 0)
    assert type(read_message(r)) is tuple


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


def desc(region_id=9, mode=SharedMode.PARTIAL, **fields):
    return RegionDescriptor(**{
        "region_id": region_id, "pid": 4242, "fd": 17, "size": 8192,
        "mode": mode, "window_offset": 4096, "window_length": 4096, **fields})


def test_a_descriptor_names_its_memory_by_owner_pid_and_fd():
    assert desc().path == "/proc/4242/fd/17"


def test_open_operation_round_trip():
    regions = [desc(2), desc(3, SharedMode.TEMPORARY)]
    body = pack_open_body("traffic", regions)
    assert body == pack_invoke_body(0, regions, ()) + b"traffic"
    name, out = unpack_open_body(body)
    assert name == "traffic"
    assert out == regions
    assert out[1].mode is SharedMode.TEMPORARY


def test_invoke_operation_round_trip():
    regions = [desc(i, mode) for i, mode in enumerate(SharedMode, 1)]
    body = pack_invoke_body(4, regions, (0, 2**63, 2**64 - 1))
    assert len(body) == OPERATION_SIZE == 104
    assert unpack_invoke_body(body) == (4, regions, (0, 2**63, 2**64 - 1))


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(0, 2**64 - 1), max_size=3 * MAX_PARAMS))
def test_reply_operation_round_trip(values):
    # the INVOKE reply is an operation of value parameters only
    assert unpack_invoke_body(pack_invoke_body(0, (), values)) == (
        0, [], tuple(values))


def test_operation_keeps_its_wire_bytes():
    # u32 TA command, u32 parameter types (4 bits each, the first lowest),
    # then four 24-byte parameters; a memory reference pairs its six u32s
    # into three u64 words, low half first
    partial = desc(6, pid=0x1234, fd=7)
    assert pack_invoke_body(3, [partial], (1, 2**64 - 1)) == bytes.fromhex(
        "03000000 25000000"
        "06000000 34120000 07000000 00200000 00100000 00100000"
        "0100000000000000 ffffffffffffffff 0000000000000000"
        + "00" * 48)


def test_an_unknown_parameter_kind_is_a_value_error():
    body = bytearray(pack_invoke_body(1, [desc()], ()))
    body[4] = 7  # the parameter-types word follows the u32 command
    with pytest.raises(ValueError, match="parameter kind code 7"):
        unpack_invoke_body(bytes(body))


def test_a_types_word_naming_a_fifth_parameter_is_a_value_error():
    body = OPERATION.pack(1, 0x10000, *(0,) * 12)
    with pytest.raises(ValueError, match="over 4 parameters"):
        unpack_invoke_body(body)


@pytest.mark.parametrize("regions, values", [
    ([desc()] * 5, ()),
    ([desc()] * 2, tuple(range(7))),
    ((), tuple(range(13))),
], ids=["five-regions", "two-regions-three-value-params", "thirteen-values"])
def test_five_parameters_are_a_value_error(regions, values):
    with pytest.raises(ValueError, match="5 parameters"):
        pack_invoke_body(1, regions, values)


@pytest.mark.parametrize("value", [-1, 2**64, 1.5])
def test_a_value_that_is_not_a_u64_is_a_value_error(value):
    with pytest.raises(ValueError):
        pack_invoke_body(1, (), (0, value))


@pytest.mark.parametrize("field", [
    "region_id", "pid", "fd", "size", "window_offset", "window_length"])
@pytest.mark.parametrize("bad", [2**32, -1])
def test_a_descriptor_field_over_u32_is_a_value_error(field, bad):
    with pytest.raises(ValueError, match="over u32"):
        pack_invoke_body(1, [desc(**{field: bad})], ())


def test_sock_open_body_round_trip():
    protocol, host, port = unpack_sock_open_body(
        pack_sock_open_body(Protocol.UDP, "10.1.2.3", 5201))
    assert (protocol, host, port) == (Protocol.UDP, "10.1.2.3", 5201)


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
