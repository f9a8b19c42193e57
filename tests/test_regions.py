import pytest

from teebench.boundary.errors import RegionAllocationError, RegionFault
from teebench.boundary.regions import SharedRegion, TrustedRegionView
from teebench.boundary.trusted import TrustedRuntime
from teebench.core import SharedMode

KIB = 1024


def make_region(mode, size=8 * KIB, offset=0, length=None):
    return SharedRegion(size, mode, offset, length)


@pytest.fixture
def partial_region():
    region = make_region(SharedMode.PARTIAL, size=8 * KIB, offset=2 * KIB,
                         length=4 * KIB)
    yield region
    region.release()


class TestAllocation:
    def test_whole_region_covers_everything(self):
        region = make_region(SharedMode.WHOLE, size=512 * KIB)
        assert region.size == 524288
        assert region.window_offset == 0
        assert region.window_length == 524288
        region.release()

    def test_partial_offset_at_size_is_an_empty_window(self):
        with pytest.raises(RegionAllocationError):
            make_region(SharedMode.PARTIAL, size=512 * KIB, offset=524288)

    def test_zero_size_rejected(self):
        with pytest.raises(RegionAllocationError):
            make_region(SharedMode.WHOLE, size=0)

    def test_whole_with_offset_rejected(self):
        with pytest.raises(RegionAllocationError):
            make_region(SharedMode.WHOLE, size=KIB, offset=16)

    def test_window_beyond_region_rejected(self):
        with pytest.raises(RegionAllocationError):
            make_region(SharedMode.PARTIAL, size=KIB, offset=512, length=1024)

    def test_temporary_is_invocation_bound(self):
        temporary = make_region(SharedMode.TEMPORARY, size=KIB)
        whole = make_region(SharedMode.WHOLE, size=KIB)
        views = []
        runtime = TrustedRuntime(None, whole.descriptor)
        runtime._enter([temporary.descriptor, whole.descriptor], views.extend)
        assert [view.revoked for view in views] == [True, False]
        runtime._revoke_all()
        temporary.release()
        whole.release()


class TestOwnerAccess:
    def test_read_write(self, partial_region):
        partial_region.write(0, b"under")
        assert partial_region.read(0, 5) == b"under"

    def test_out_of_bounds(self, partial_region):
        with pytest.raises(RegionFault):
            partial_region.write(8 * KIB - 2, b"xxxx")
        with pytest.raises(RegionFault):
            partial_region.read(-1, 4)

    def test_window_addressing_maps_through_the_offset(self, partial_region):
        partial_region.window_write(0, b"window")
        assert partial_region.read(2 * KIB, 6) == b"window"
        assert partial_region.window_read(0, 6) == b"window"
        with partial_region.window_view(0, 6) as view:
            assert view == b"window"

    def test_window_view_is_the_mapping_and_pins_it_until_released(self):
        region = make_region(SharedMode.WHOLE, size=KIB)
        with region.window_view(0, 4) as view:
            region.write(0, b"live")
            assert view == b"live"
            with pytest.raises(BufferError):
                region.release()
            assert not region.released
            with region.window_view(0, 4) as again:
                assert again == b"live"
        region.release()
        assert region.released

    def test_window_bounds(self, partial_region):
        with pytest.raises(RegionFault):
            partial_region.window_write(4 * KIB - 2, b"xxxx")
        with pytest.raises(RegionFault):
            partial_region.window_view(4 * KIB - 2, 4)
        with pytest.raises(RegionFault):
            partial_region.window_view(-1, 4)

    def test_release_then_access_faults(self):
        region = make_region(SharedMode.WHOLE, size=KIB)
        region.release()
        with pytest.raises(RegionFault):
            region.read(0, 1)
        with pytest.raises(RegionFault):
            region.window_view(0, 1)
        region.release()  # idempotent


# access patterns for the trusted-side window grid: (offset, length) as
# fractions of the window, plus hard out-of-window cases
def window_patterns(wlen):
    return [
        ("start", 0, 16, True),
        ("middle", wlen // 2, 16, True),
        ("end", wlen - 16, 16, True),
        ("full", 0, wlen, True),
        ("zero-length", 0, 0, True),
        ("cross-end", wlen - 8, 16, False),
        ("past-end", wlen, 1, False),
        ("negative", -1, 4, False),
        ("huge", 0, wlen + 1, False),
    ]


@pytest.mark.parametrize("mode", list(SharedMode))
@pytest.mark.parametrize("op", ["read", "write"])
def test_trusted_view_window_grid(mode, op):
    offset = 2 * KIB if mode is not SharedMode.WHOLE else 0
    region = make_region(mode, size=8 * KIB, offset=offset, length=4 * KIB
                         if mode is not SharedMode.WHOLE else None)
    view = TrustedRegionView(region.descriptor)
    wlen = view.window_length
    for name, off, length, legal in window_patterns(wlen):
        def attempt():
            if op == "read":
                view.read(off, length)
            else:
                view.write(off, b"\xcd" * length)
        if legal:
            attempt()
        else:
            with pytest.raises(RegionFault):
                attempt()
    view.revoke()
    region.release()


def test_view_sees_owner_writes_and_vice_versa(partial_region):
    view = TrustedRegionView(partial_region.descriptor)
    partial_region.window_write(0, b"from-owner")
    assert view.read(0, 10) == b"from-owner"
    view.write(16, b"from-view")
    assert partial_region.window_read(16, 9) == b"from-view"
    view.revoke()


def test_revoked_view_faults_everywhere(partial_region):
    view = TrustedRegionView(partial_region.descriptor)
    view.revoke()
    with pytest.raises(RegionFault, match="no longer shared"):
        view.read(0, 1)
    with pytest.raises(RegionFault):
        view.write(0, b"x")
    view.revoke()  # idempotent


class TestStage:
    def test_stage_writes_n_bytes_at_window_offset_0(self, partial_region):
        view = TrustedRegionView(partial_region.descriptor)
        view.stage(memoryview(b"staged"), 6)
        assert partial_region.window_read(0, 6) == b"staged"
        assert partial_region.read(0, partial_region.window_offset) == bytes(
            partial_region.window_offset)
        view.revoke()

    def test_stage_after_revoke_is_the_fault_write_raises(self, partial_region):
        view = TrustedRegionView(partial_region.descriptor)
        view.revoke()
        with pytest.raises(RegionFault, match="no longer shared") as staged:
            view.stage(b"x", 1)
        with pytest.raises(RegionFault) as written:
            view.write(0, b"x")
        assert str(staged.value) == str(written.value)

    def test_stage_over_the_window_faults_and_writes_nothing(self, partial_region):
        view = TrustedRegionView(partial_region.descriptor)
        n = view.window_length + 1
        with pytest.raises(RegionFault, match="outside") as staged:
            view.stage(b"\xab" * n, n)
        with pytest.raises(RegionFault) as written:
            view.write(0, b"\xab" * n)
        assert str(staged.value) == str(written.value)
        assert partial_region.read(0, partial_region.size) == bytes(
            partial_region.size)
        view.revoke()

    def test_a_send_after_revoke_all_faults_before_it_relays(self):
        region = make_region(SharedMode.WHOLE)
        calls = []

        def rpc(*fields):
            calls.append(fields)
            return fields[3]

        runtime = TrustedRuntime(rpc, region.descriptor)
        sock = runtime.env.discard_socket()
        runtime._revoke_all()
        with pytest.raises(RegionFault):
            sock.send(b"x" * KIB)
        assert calls == []
        region.release()
