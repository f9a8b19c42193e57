"""Normal-world lifecycle: contexts, sessions and crossing accounting.

A session talks to its trusted application over a channel. The
"process" channel (the default) forks the application bare (``os.fork``)
into its own process wired up with two header slots and shared memory.
Each direction of the channel is a 32-byte header slot in one anonymous
shared page plus a futex-backed semaphore that the writer posts. The
semaphore is the C type ``_multiprocessing.SemLock``; ``src/`` does not
use the ``multiprocessing`` package, and the semaphore's ``/dev/shm``
name is unlinked inside its constructor. A reader takes a posted frame
at once; else it yields its core up to a fixed number of times, taking a
frame posted meanwhile, and only then sleeps on the semaphore. That
wait builds no object: each world resumes cold after a switch, so an
allocation there costs several times its warm price. Pinned to
one core, as the bench pins both worlds, each yield runs the peer, so a
crossing hands the core over as a TrustZone SMC does, and the writer's
post wakes no sleeper; unpinned, the peer runs on another core while the
reader yields. The trusted process answers every request alike, and only
the normal world ends it: closing the session kills and reaps it.
A sleeping reader is the one place that checks its peer lives: it
sleeps in rounds of ``_LIVENESS_PERIOD`` and after each asks its port
whether the writer lives, the normal world whether the child has exited,
the trusted world whether its parent is still its parent. So a dead
child reads as a ``BoundaryError`` and an orphan exits, each within
about one period rather than at once, and a frame posted just before its
writer died is still read. No thread watches the peer: a trusted
process runs one thread, and opening a session starts none in the
normal world. The "inline" channel
(``transport="inline"``) calls the same ``TrustedRuntime.dispatch`` in
the calling process; the tests and the benchmark's inline probes use it.

This is the one module that forks, so it alone decides what a forked
child lets go of: a weak registry holds everything the normal world
keeps for sessions (each allocated region, each session's scratch
region and supplicant, each channel's slot page and semaphores), and an
at-fork hook calls ``release()`` on every entry in the child. The
child thus holds only what its OPEN names, which it maps again through
``/proc/<ppid>/fd``; no later child keeps an earlier session's relayed
socket or channel.

Every message between the two worlds is one world crossing and one
injection of ``switch_cost`` wall time: an open/invoke/close costs two,
charged by ``Session._cross``, and so does a relayed socket call. The
inline channel serves a relayed call through ``Session._serve``, which
charges it through ``_cross``. The process channel serves it in
``exchange``'s own loop, which charges both crossings itself: the one
deliberate copy of ``_cross``, kept because a Python call per crossing
costs about 1% of a 1 KiB relayed send. A message is a bare header;
``Session._call`` stages the request in the session scratch region at
window offset 0 before it crosses. An OPEN or INVOKE stages one fixed
operation (``protocol``): a TA command, a parameter-types word and four
parameters, each a value of up to three u64s or a memory reference
whose six fields (region id, owner pid, fd, size, window) are u32s;
OPEN appends the TA name. Every region a call names is described in
full on every call, so no world keeps registration state, and a
released region is a ``RegionFault`` before anything crosses, as more
than four parameters or a value that is not a u64 is a ``ValueError``.
``invoke`` reads the reply, an operation of values only, from the
scratch, bounds-checked since its length comes from the trusted side; a
reply of length 0 holds no values, and one that does not decode is a
``BoundaryError``.
The caller's thread stays blocked for the whole invocation; it is the
thread that services the trusted side's relayed calls.

Counts are kept per session, without a lock: only the session's one
in-flight operation writes them. A session registers with its context
when it is created and folds its counts into the context's totals when
it is torn down, also after a failed open; ``Context.stats`` sums the
totals and every live session on read.
"""

from __future__ import annotations

import dataclasses
import itertools
import mmap
import os
import signal
import struct
import sys
import threading
import traceback
import weakref
from collections import namedtuple
from dataclasses import dataclass

from _multiprocessing import SemLock

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
    HEADER,
    HEADER_SIZE,
    INVOKE,
    OPEN,
    RETURN,
    SOCK_RECV,
    SOCK_SEND,
    TeeResult,
    pack_invoke_body,
    pack_open_body,
    unpack_invoke_body,
)
from .regions import SharedRegion
from .supplicant import Supplicant
from .trusted import TrustedRuntime

REGION_CAP = 64 * MIB  # shared-region bytes one context may have outstanding

# regions, supplicants and channels the normal world holds for sessions;
# each has an idempotent release(), as a closed one stays here until collected
_held = weakref.WeakSet()


def _after_fork_in_child() -> None:
    """In a forked child, let go of everything the normal world holds."""
    for item in list(_held):
        try:
            item.release()
        except BufferError:  # a region a live window view pins: leave it mapped
            pass


os.register_at_fork(after_in_child=_after_fork_in_child)


@dataclass(slots=True)
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
        self._sessions: list["Session"] = []  # live ones: _teardown removes them
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
        region = SharedRegion(size, mode, offset, length)
        _held.add(region)
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
        live_regions = [r for r in self._regions.values() if not r.released]
        if self._sessions or live_regions:
            raise SessionStateError(
                f"context busy: {len(self._sessions)} open session(s), "
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
        self._scratch = SharedRegion(TA_MEMORY_LIMIT, SharedMode.WHOLE)
        self._supplicant = Supplicant()
        _held.add(self._scratch)
        _held.add(self._supplicant)
        # all a relayed call may name
        self._relay_regions = {self._scratch.region_id: self._scratch}
        self._channel = None
        with ctx._lock:
            ctx._sessions.append(self)
        try:
            # a released region faults here, before anything crosses
            body = pack_open_body(ta_name, [r.descriptor for r in args_regions])
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

    def _call(self, command: int, body: bytes) -> tuple[int, int]:
        """Stage a request in the scratch, enter the trusted world with it
        and return with the reply's status and staged length."""
        self._scratch.window_write(0, body)
        self._cross()
        status, length = self._channel.exchange(command, len(body))
        self._cross()
        return status, length

    def _serve(self, *msg) -> int:
        """The inline channel's path for one relayed socket call the
        trusted side made, as the runtime's ``rpc``: ``msg`` is the bare
        5-tuple of its header, fields in ``Message``'s order. The process
        channel serves its calls in ``exchange``, with the same
        accounting."""
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
            status, length = self._call(INVOKE, body)
            result = _tee_result(status)
            if not length:  # nothing staged, as after a trusted exception
                return InvokeResult(result, ())
            try:
                values = unpack_invoke_body(self._scratch.window_read(0, length))[2]
            except (struct.error, ValueError) as exc:
                raise BoundaryError(f"malformed INVOKE reply: {exc}") from None
            return InvokeResult(result, values)
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
            self._channel = None  # it refers back to this session
        self._supplicant.release()
        self._scratch.release()


# --------------------------------------------------------------------------
# channels: how a request reaches the trusted runtime and its reply returns
# --------------------------------------------------------------------------


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


# SemLock's kind code of a counting semaphore (multiprocessing.synchronize)
_SEMAPHORE = 1
_EXITED = os.WEXITED | os.WNOHANG | os.WNOWAIT  # has it exited? leave it unreaped
_semaphore_ids = itertools.count()

# Bound once for the per-frame path.
_pack_into = HEADER.pack_into
_unpack_from = HEADER.unpack_from
_yield = os.sched_yield

# How many times a reader with no frame yields its core before it sleeps.
# On the one core the bench pins both worlds to, each yield runs the peer,
# so a crossing costs a yield and a switch, not a futex sleep and wake-up.
# Unpinned, the peer runs on another core: 64 yields (about 0.4 us each
# when nothing else wants the core) outlast a relayed call's round trip,
# where 4 did not, and cap what a reader burns while its peer is idle.
_YIELDS = 64
# Seconds a reader past its yields sleeps before it asks whether the writer
# still lives: a dead peer reads as None within about this, and an idle
# reader wakes this often. Neither relay reaches the sleep when pinned.
_LIVENESS_PERIOD = 0.05


def _child_lives(pid: int):
    """Whether child ``pid`` has not exited; it is left unreaped for
    ``close()``, and an already reaped one counts as gone."""
    def alive() -> bool:
        try:
            return os.waitid(os.P_PID, pid, _EXITED) is None
        except ChildProcessError:
            return False
    return alive


class _Port:
    """One direction of a process channel: a 32-byte header slot in a page
    both processes map, and a futex-backed semaphore (0 or 1) the writer
    posts once the slot holds a frame.

    Its reader takes a posted frame, else yields, else sleeps on the
    semaphore in rounds of ``_LIVENESS_PERIOD``, calling ``alive()`` after
    each to ask whether the writer still lives (``read_message``).
    """

    __slots__ = ("page", "at", "post", "wait", "alive")

    def __init__(self, page: mmap.mmap, at: int, alive):
        # the name is unlinked before the constructor returns
        sem = SemLock(_SEMAPHORE, 0, 1,
                      f"/teebench-{os.getpid()}-{next(_semaphore_ids)}", True)
        self.page, self.at = page, at
        self.post, self.wait = sem.release, sem.acquire
        self.alive = alive


# The process channel's framing. Both worlds look these names up in this
# module, so a tracer that replaces them here sees every frame; they are
# not ``protocol``'s pipe codec of the same names.

def write_message(port: _Port, command: int, region_id: int = 0,
                  offset: int = 0, length: int = 0, status: int = 0) -> None:
    """Put one frame in the port's slot and wake its reader; a ValueError
    if the reader has not taken the last one."""
    _pack_into(port.page, port.at, command, region_id, offset, length, status)
    port.post()


def read_message(port: _Port) -> tuple[int, int, int, int, int] | None:
    """Take the port's frame and return it as the bare header tuple,
    fields in ``Message``'s order; None once its writer is dead.

    A frame posted already is taken at once. Otherwise the reader yields
    its core and tries again, up to ``_YIELDS`` times, and only then
    sleeps on the semaphore, so a writer whose reader spins makes no
    ``futex_wake`` call. The wait counts down a small int and builds no
    object: the reader runs it just after being switched back in, with
    cold caches, where an allocation costs several times its warm price.
    The sleep lasts ``_LIVENESS_PERIOD`` at a time, and after each one the
    reader asks the port whether its writer lives. So a dead writer is
    noticed within about a period, not at once, and a frame it posted
    just before it died is still read; the next read, and every later
    one, returns None.
    """
    take = port.wait
    left = _YIELDS
    while not take(False):
        if not left:
            while not take(True, _LIVENESS_PERIOD):
                if not port.alive():
                    if take(False):  # posted just before the writer died
                        break
                    return None
            break
        _yield()
        left -= 1
    return _unpack_from(port.page, port.at)


def _trusted_process_main(inbox: _Port, outbox: _Port, scratch) -> None:
    def rpc(command, region_id, offset, length, handle) -> int:
        write_message(outbox, command, region_id, offset, length, handle)
        reply = read_message(inbox)
        if reply is None:
            raise BoundaryError("relay closed while waiting for a reply")
        return reply[4]  # status

    runtime = TrustedRuntime(rpc, scratch)
    while (msg := read_message(inbox)) is not None:
        status, length = runtime.dispatch(msg[0], msg[3])
        _flush_stdio()  # the parent may kill this process once it has this RETURN
        write_message(outbox, RETURN, 0, 0, length, status)


class _ProcessChannel:
    """The trusted runtime in a bare forked process behind two ports.

    Both ports' slots share one anonymous shared page, made before the
    fork with the semaphores. The channel is registered after the fork,
    so only later children let go of it. Each world's reads ask whether
    the other lives: the child's whether the parent is still its parent,
    the parent's whether the child has exited, so neither world starts a
    thread for it. A child whose parent is gone before its first line
    exits at once. ``close`` kills and reaps the child. The child inherits the
    scratch descriptor and maps the scratch before its first request.
    """

    def __init__(self, session: Session):
        self._session = session
        scratch = session._scratch.descriptor
        self._page = mmap.mmap(-1, 2 * HEADER_SIZE)
        parent = os.getpid()
        # each port's predicate asks after the world that writes to it
        self._to_child = _Port(self._page, 0, lambda: os.getppid() == parent)
        self._to_parent = _Port(self._page, HEADER_SIZE, None)  # set after the fork
        _flush_stdio()  # else the child would write the parent's buffered output again
        self._pid = os.fork()
        if self._pid == 0:  # the child; it never returns from here
            try:
                if os.getppid() == parent:  # else it was orphaned already
                    _trusted_process_main(self._to_child, self._to_parent, scratch)
                os._exit(0)
            except BaseException:
                traceback.print_exc()
                _flush_stdio()
            finally:
                os._exit(1)
        self._to_parent.alive = _child_lives(self._pid)
        _held.add(self)

    def exchange(self, command: int, length: int) -> tuple[int, int]:
        """Send one request, serving the trusted side's relayed calls until
        RETURN, each as ``Session._serve`` would, without its calls."""
        to_child, to_parent = self._to_child, self._to_parent
        session = self._session
        stats, cost = session._stats, session._switch_cost
        supplicant, regions = session._supplicant, session._relay_regions
        service = Supplicant.service  # per exchange, so a later patch is seen
        try:
            write_message(to_child, command, 0, 0, length)
            while (msg := read_message(to_parent)) is not None:
                if msg[0] == RETURN:
                    return msg[4], msg[3]  # status, reply length
                stats.crossings += 1
                if cost:
                    clock.inject_delay(cost)
                status = service(supplicant, msg, regions)
                stats.rpc_count += 1
                if status > 0 and (msg[0] == SOCK_SEND or msg[0] == SOCK_RECV):
                    stats.bytes_copied += status
                stats.crossings += 1
                if cost:
                    clock.inject_delay(cost)
                write_message(to_child, RETURN, 0, 0, 0, status)
        except ValueError:  # a second post the child never took: it is gone
            pass
        raise BoundaryError("trusted process terminated unexpectedly")

    def release(self) -> None:
        """Unmap the slot page and drop the semaphores; idempotent."""
        self._page.close()
        self._to_child = self._to_parent = None

    def close(self) -> None:
        self.release()
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)


class _InlineChannel:
    """The trusted runtime called directly in the calling process; closing
    it unmaps what the session shared, also after a failed open."""

    def __init__(self, session: Session):
        self.runtime = TrustedRuntime(session._serve, session._scratch.descriptor)
        self.exchange = self.runtime.dispatch
        self.close = self.runtime._revoke_all


_CHANNELS = {"process": _ProcessChannel, "inline": _InlineChannel}
