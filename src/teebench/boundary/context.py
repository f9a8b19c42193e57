"""Normal-world lifecycle: contexts, sessions and crossing accounting.

A session talks to its trusted application over a channel. The
"process" channel (the default) forks the application into its own
process wired up with a control pipe plus shared memory; the "inline"
channel calls the same ``TrustedRuntime.dispatch`` in the calling process
and exists for tests (``transport="inline"``).

Every message between the two worlds is one world crossing and one
injection of ``switch_cost`` wall time, both done by ``Session._cross``
and nowhere else: a relayed socket call costs two crossings and an
open/invoke/close costs two. The caller's thread stays blocked for the
whole invocation; it is the thread that services the trusted side's
relayed calls.

Counts are kept per session, without a lock: only the session's one
in-flight operation writes them. A session registers with its context
when it is created and folds its counts into the context's totals when
it is torn down, also after a failed open; ``Context.stats`` sums the
totals and every live session on read.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from collections import namedtuple
from dataclasses import dataclass
from multiprocessing import get_context as _mp_get_context

from .. import clock
from ..core import MIB, SharedMode, TA_MEMORY_LIMIT
from .errors import (
    BoundaryError,
    RegionAllocationError,
    SessionStateError,
    TaNotFoundError,
)
from .protocol import (
    CLOSE,
    INVOKE,
    OPEN,
    RETURN,
    SOCK_RECV,
    SOCK_SEND,
    Message,
    TeeResult,
    pack_invoke_body,
    pack_open_body,
    read_message,
    unpack_values,
    write_message,
)
from .regions import SharedRegion
from .supplicant import Supplicant
from .trusted import TrustedRuntime

REGION_CAP = 64 * MIB  # shared-region bytes one context may have outstanding


@dataclass
class BoundaryStats:
    """Counts and accumulated cost of world-boundary traffic.

    Each session keeps its own counts; ``Context.stats`` returns their
    sum, with ``injected_cost_total`` computed as crossings times the
    context's switch cost.
    """

    crossings: int = 0              # secure->normal plus normal->secure
    injected_cost_total: float = 0.0
    rpc_count: int = 0              # relayed socket calls
    bytes_copied: int = 0           # payload bytes staged through shared memory

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _add(self, other: "BoundaryStats") -> None:
        self.crossings += other.crossings
        self.rpc_count += other.rpc_count
        self.bytes_copied += other.bytes_copied


InvokeResult = namedtuple("InvokeResult", "status values")

_TEE_RESULTS = {int(result): result for result in TeeResult}


def _tee_result(status: int) -> TeeResult:
    """The ``TeeResult`` a reply carries; any other status is a BoundaryError."""
    result = _TEE_RESULTS.get(status)
    if result is None:
        raise BoundaryError(f"trusted side answered with unknown status {status}")
    return result


class Context:
    """Owner of shared regions, sessions and the boundary statistics."""

    def __init__(self, *, switch_cost: float = 0.0, transport: str = "process"):
        if transport not in _CHANNELS:
            raise ValueError(f"unknown boundary transport {transport!r}")
        self.switch_cost = switch_cost
        self.transport = transport
        self._regions: dict[int, SharedRegion] = {}
        self._sessions: list["Session"] = []
        self._region_ids = itertools.count(1)  # 0 means "no region" on the wire
        self._stats = BoundaryStats()   # totals of the sessions torn down
        self._lock = threading.Lock()
        self._finalized = False

    # -- statistics ----------------------------------------------------------

    @property
    def stats(self) -> BoundaryStats:
        total = BoundaryStats()
        with self._lock:
            total._add(self._stats)
            for session in self._sessions:
                total._add(session._stats)
        total.injected_cost_total = total.crossings * self.switch_cost
        return total

    # -- regions ---------------------------------------------------------------

    def allocate_shared_region(self, size: int, mode: SharedMode,
                               offset: int = 0,
                               length: int | None = None) -> SharedRegion:
        self._check_live()
        outstanding = sum(r.size for r in self._regions.values() if not r.released)
        if outstanding + size > REGION_CAP:
            raise RegionAllocationError(
                f"allocating {size} B would exceed the {REGION_CAP} B region cap"
            )
        region = SharedRegion(next(self._region_ids), size, mode, offset, length)
        self._regions[region.region_id] = region
        return region

    def release_region(self, region: SharedRegion) -> None:
        region.release()
        self._regions.pop(region.region_id, None)

    # -- sessions ----------------------------------------------------------------

    def open_session(self, ta_name: str, args_regions=()) -> "Session":
        """Bind a session to the named trusted application.

        ``args_regions`` are shared along with session creation; any
        temporary region among them is only valid while the open runs.
        """
        self._check_live()
        return Session(self, ta_name, tuple(args_regions))

    # -- lifecycle ------------------------------------------------------------

    def _check_live(self):
        if self._finalized:
            raise SessionStateError("context already finalized")

    def finalize(self) -> None:
        """Tear the context down; fails while sessions or regions are live."""
        self._check_live()
        live_sessions = [s for s in self._sessions if not s.closed]
        live_regions = [r for r in self._regions.values() if not r.released]
        if live_sessions or live_regions:
            raise SessionStateError(
                f"context busy: {len(live_sessions)} open session(s), "
                f"{len(live_regions)} unreleased region(s)"
            )
        self._finalized = True


def initialize_context(**kwargs) -> Context:
    """Create an empty context with zeroed boundary statistics."""
    return Context(**kwargs)


class Session:
    """One bound trusted application; one in-flight invocation at a time."""

    def __init__(self, ctx: Context, ta_name: str, args_regions=()):
        self._ctx = ctx
        self._switch_cost = ctx.switch_cost
        self.closed = False
        self._op_lock = threading.Lock()
        self._stats = BoundaryStats()   # written only by the in-flight op
        scratch_id = next(ctx._region_ids)
        self._scratch = SharedRegion(scratch_id, TA_MEMORY_LIMIT, SharedMode.WHOLE)
        self._supplicant = Supplicant()
        self._relay_regions = {scratch_id: self._scratch}  # all a relayed call may name
        self._channel = None
        with ctx._lock:
            ctx._sessions.append(self)
        try:
            # a released region faults here, before anything crosses
            body = pack_open_body(ta_name, self._scratch.descriptor,
                                  [r.descriptor for r in args_regions])
            self._channel = _CHANNELS[ctx.transport](self)
            status = _tee_result(self._call(OPEN, body)[0])
            if status is TeeResult.NOT_FOUND:
                raise TaNotFoundError(f"no trusted application named {ta_name!r}")
            if status is not TeeResult.SUCCESS:
                raise BoundaryError(f"opening {ta_name!r} failed with {status.name}")
        except BaseException:
            self._teardown()
            raise

    # -- the one place a world crossing happens ------------------------------

    def _cross(self) -> None:
        """One world switch: counted once and charged once."""
        self._stats.crossings += 1
        if self._switch_cost:
            clock.inject_delay(self._switch_cost)

    def _call(self, command: int, body: bytes) -> tuple[int, bytes]:
        """Enter the trusted world with a request and return with its reply."""
        self._cross()
        status, body = self._channel.exchange(command, body)
        self._cross()
        return status, body

    def _serve(self, msg: Message) -> int:
        """Service one relayed socket call the trusted side made."""
        self._cross()
        status = self._supplicant.service(msg, self._relay_regions)
        stats = self._stats
        stats.rpc_count += 1
        if status > 0 and (msg[0] == SOCK_SEND or msg[0] == SOCK_RECV):
            stats.bytes_copied += status
        self._cross()
        return status

    # -- public operations -----------------------------------------------------

    def _begin_op(self):
        if self.closed:
            raise SessionStateError("session is closed")
        if not self._op_lock.acquire(blocking=False):
            raise SessionStateError("an invocation is already in flight")

    def invoke(self, command: int, regions=(), values=()) -> InvokeResult:
        self._begin_op()
        try:
            body = pack_invoke_body(
                command, [r.descriptor for r in regions], tuple(values)
            )
            status, reply = self._call(INVOKE, body)
            return InvokeResult(_tee_result(status), unpack_values(reply))
        finally:
            self._op_lock.release()

    def close(self) -> None:
        self._begin_op()
        try:
            self._call(CLOSE, b"")
        finally:
            self._teardown()
            self._op_lock.release()

    def _teardown(self):
        self.closed = True
        ctx = self._ctx
        with ctx._lock:
            ctx._sessions.remove(self)
            ctx._stats._add(self._stats)
        if self._channel is not None:
            self._channel.close()
        self._supplicant.close_all()
        self._scratch.release()


# --------------------------------------------------------------------------
# channels: how a request reaches the trusted runtime and its reply returns
# --------------------------------------------------------------------------


def _trusted_process_main(rfd: int, wfd: int, parent_fds: tuple[int, int]) -> None:
    # held here, the parent's ends would keep the request pipe from EOF after it dies
    for fd in parent_fds:
        os.close(fd)

    def rpc(command, region_id, offset, length, handle, body) -> int:
        write_message(wfd, command, region_id, offset, length, handle, body)
        reply = read_message(rfd)
        if reply is None:
            raise BoundaryError("relay closed while waiting for a reply")
        return reply[4]  # status

    runtime = TrustedRuntime(rpc)
    while True:
        msg = read_message(rfd)
        if msg is None:
            break
        status, body = runtime.dispatch(msg.command, msg.body)
        write_message(wfd, RETURN, status=status, body=body)
        if msg.command == CLOSE or (
                msg.command == OPEN and status != TeeResult.SUCCESS):
            break
    os.close(rfd)
    os.close(wfd)


class _ProcessChannel:
    """The trusted runtime in a forked process behind two pipes."""

    def __init__(self, session: Session):
        self._serve = session._serve
        to_child_r, to_child_w = os.pipe()
        to_parent_r, to_parent_w = os.pipe()
        self._proc = _mp_get_context("fork").Process(
            target=_trusted_process_main,
            args=(to_child_r, to_parent_w, (to_child_w, to_parent_r)),
            daemon=True,
        )
        self._proc.start()
        os.close(to_child_r)
        os.close(to_parent_w)
        self._wfd = to_child_w
        self._rfd = to_parent_r

    def exchange(self, command: int, body: bytes) -> tuple[int, bytes]:
        """Send one request, relaying the trusted side's calls until RETURN."""
        rfd, wfd, serve = self._rfd, self._wfd, self._serve
        write_message(wfd, command, body=body)
        while True:
            msg = read_message(rfd)
            if msg is None:
                raise BoundaryError("trusted process terminated unexpectedly")
            if msg[0] == RETURN:
                return msg.status, msg.body
            write_message(wfd, RETURN, 0, 0, 0, serve(msg))

    def close(self) -> None:
        for fd in (self._wfd, self._rfd):
            try:
                os.close(fd)
            except OSError:
                pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)


class _InlineChannel:
    """The trusted runtime called directly in the calling process."""

    def __init__(self, session: Session):
        def rpc(*fields) -> int:
            return session._serve(tuple.__new__(Message, fields))

        self.runtime = TrustedRuntime(rpc)
        self.exchange = self.runtime.dispatch

    def close(self) -> None:
        pass


_CHANNELS = {"process": _ProcessChannel, "inline": _InlineChannel}
