"""Shared-memory regions with mode, access-window and lifetime semantics.

A region is ``os.memfd_create`` memory, held by its fd for the region's
life and named in no filesystem, as OP-TEE's shared memory is owned by
the kernel; the kernel frees it when the last holder exits, so a killed
run leaves nothing behind. The trusted side maps ``/proc/<pid>/fd/<fd>``
(Linux with procfs), so a released region, whose fd number may be
reused, yields no descriptor. The owning (normal-world) side has
unrestricted access to its own buffer; the trusted side only ever sees
the access window, addressed window-relative, and loses access when the
region is revoked (invocation return for temporary regions, session
close for session-bound ones).

A region numbers itself: its id comes from one process-wide counter
starting at 1 (0 means "no region" on the wire), so no two regions of a
process share an id, whichever contexts or sessions hold them. The
trusted side caches its views of WHOLE and PARTIAL regions by id, and
a context keys its registry by id, so an id names one region only.
"""

from __future__ import annotations

import itertools
import mmap
import os
from typing import NamedTuple

from ..core import SharedMode
from .errors import RegionAllocationError, RegionFault

_region_ids = itertools.count(1)  # process-wide; 0 means "no region" on the wire


class RegionDescriptor(NamedTuple):
    """Everything the trusted side needs to attach and police a region;
    it maps the memory the owner's pid and fd name as ``path``."""

    region_id: int
    pid: int
    fd: int
    size: int
    mode: SharedMode
    window_offset: int
    window_length: int

    @property
    def path(self) -> str:
        return f"/proc/{self.pid}/fd/{self.fd}"


def _check_window(size: int, mode: SharedMode, offset: int, length: int | None):
    if not isinstance(mode, SharedMode):
        raise RegionAllocationError(f"sharing mode {mode!r} is not a SharedMode")
    if size < 1:
        raise RegionAllocationError("region size must be >= 1")
    if mode is SharedMode.WHOLE and offset != 0:
        raise RegionAllocationError("whole regions take no offset")
    if offset < 0 or offset >= size:
        raise RegionAllocationError(
            f"offset {offset} leaves an empty window in a {size}-byte region"
        )
    if length is None:
        length = size - offset
    if length < 1 or offset + length > size:
        raise RegionAllocationError(
            f"window [{offset}, {offset + length}) not within [0, {size})"
        )
    return length


def _check_span(offset: int, length: int, limit: int) -> None:
    """Fault unless [offset, offset + length) lies within [0, limit)."""
    if offset < 0 or length < 0 or offset + length > limit:
        raise RegionFault(f"access [{offset}, {offset + length}) outside [0, {limit})")


class SharedRegion:
    """Normal-world handle to one shared memory area.

    ``read``/``write`` address the whole underlying buffer;
    ``window_read``/``window_write`` use the same window-relative
    coordinates the trusted side sees.
    """

    def __init__(self, size: int, mode: SharedMode,
                 offset: int = 0, length: int | None = None):
        length = _check_window(size, mode, offset, length)
        self.region_id = next(_region_ids)
        self.size = size
        self.mode = mode
        self.window_offset = offset
        self.window_length = length
        self._fd = os.memfd_create("teebench-shm")
        try:
            os.ftruncate(self._fd, size)
            self._map = mmap.mmap(self._fd, size)
        except BaseException:
            os.close(self._fd)
            raise
        self._pid = os.getpid()
        self._view = memoryview(self._map)  # window_view slices this
        self._released = False

    @property
    def descriptor(self) -> RegionDescriptor:
        self._check_open()
        return RegionDescriptor(self.region_id, self._pid, self._fd, self.size,
                                self.mode, self.window_offset, self.window_length)

    @property
    def released(self) -> bool:
        return self._released

    def _check_open(self):
        if self._released:
            raise RegionFault(f"region {self.region_id} already released")

    def write(self, offset: int, data) -> None:
        self._check_open()
        length = memoryview(data).nbytes
        _check_span(offset, length, self.size)
        self._map[offset:offset + length] = data

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        _check_span(offset, length, self.size)
        return self._map[offset:offset + length]

    def window_read(self, offset: int, length: int) -> bytes:
        _check_span(offset, length, self.window_length)
        return self.read(self.window_offset + offset, length)

    def window_write(self, offset: int, data) -> None:
        _check_span(offset, memoryview(data).nbytes, self.window_length)
        self.write(self.window_offset + offset, data)

    def window_view(self, offset: int, length: int) -> memoryview:
        """Window bytes as a view of the mapping itself, without a copy.

        The view pins the mapping: release it (``view.release()`` or a
        ``with`` block) before the region is released, or ``release()``
        raises ``BufferError``.
        """
        # compared inline on the relay path; the helpers name the fault
        if (offset < 0 or length < 0 or offset + length > self.window_length
                or self._released):
            _check_span(offset, length, self.window_length)
            self._check_open()
        base = self.window_offset + offset
        return self._view[base:base + length]

    def release(self) -> None:
        """Unmap the region and close its fd; idempotent."""
        if self._released:
            return
        self._view.release()
        try:
            self._map.close()
        except BufferError:  # a window view is live: keep the region usable
            self._view = memoryview(self._map)
            raise
        self._released = True
        os.close(self._fd)

    def __del__(self):  # best-effort; the contract is explicit release()
        try:
            self.release()
        except Exception:
            pass


class TrustedRegionView:
    """Trusted-side view of a region: window-restricted and revocable.

    All offsets are relative to the window. Any access outside
    [0, window_length) or after revocation raises RegionFault.
    """

    def __init__(self, desc: RegionDescriptor):
        self.descriptor = desc
        self._window_offset = desc.window_offset
        self._window_length = desc.window_length
        fd = os.open(desc.path, os.O_RDWR)
        try:
            self._map = mmap.mmap(fd, desc.size)
        finally:
            os.close(fd)
        self._revoked = False

    @property
    def window_length(self) -> int:
        return self._window_length

    @property
    def revoked(self) -> bool:
        return self._revoked

    def _check(self, offset: int, length: int):
        if self._revoked:
            raise RegionFault(
                f"region {self.descriptor.region_id} no longer shared "
                f"({self.descriptor.mode.value} region revoked)"
            )
        _check_span(offset, length, self._window_length)

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        base = self._window_offset + offset
        return self._map[base:base + length]

    def write(self, offset: int, data) -> None:
        length = memoryview(data).nbytes
        self._check(offset, length)
        base = self._window_offset + offset
        self._map[base:base + length] = data

    def stage(self, piece, n: int) -> None:
        """Write ``piece``, exactly n bytes, at window offset 0.

        The staging write of a relayed send: it faults as ``write(0,
        piece)`` does, after revocation or when n is over the window, but
        checks nothing further when the write is in bounds.
        """
        if self._revoked or n > self._window_length:
            self._check(0, n)
        base = self._window_offset
        self._map[base:base + n] = piece

    def revoke(self) -> None:
        if not self._revoked:
            self._revoked = True
            self._map.close()
