import ctypes
import errno
import gc
import mmap
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
import zlib
from array import array
from types import SimpleNamespace

import pytest

import teebench
from teebench import clock
from teebench.boundary import (
    DISCARD_HANDLE,
    BoundaryError,
    NOOP_COMMAND,
    RegionFault,
    SessionStateError,
    TaNotFoundError,
    TeeResult,
    TeeSocketError,
    initialize_context,
    register_ta,
)
from teebench.boundary import context
from teebench.boundary.protocol import (
    HEADER_SIZE,
    RETURN,
    Command,
    IoctlCode,
    Message,
    pack_ioctl_body,
)
from teebench.boundary.regions import SharedRegion
from teebench.boundary.supplicant import OsSocket, Supplicant
from teebench.boundary.tas import ProbeCommand, TouchOp
from teebench.boundary.trusted import SocketState, TeeSocket, TrustedRuntime
from teebench.core import (
    TA_MEMORY_LIMIT,
    Execution,
    Mode,
    Protocol,
    RunConfig,
    SharedMode,
)
from teebench.runner import run_client

KIB = 1024
MIB = 1024 * KIB


@register_ta("test-sleeper")
class _SleeperTa:
    def on_invoke(self, env, command, params):
        (millis,) = params.values
        time.sleep(millis / 1000)
        return TeeResult.SUCCESS


@register_ta("test-flaky-socket")
class _FlakySocketTa:
    """Sends against a peer that hangs up, reporting what surfaced."""

    def on_invoke(self, env, command, params):
        (port,) = params.values
        sock = env.open_socket("127.0.0.1", port, Protocol.TCP)
        time.sleep(0.3)  # give the peer time to close on us
        caught = 0
        for _ in range(100):
            try:
                sock.send(b"x" * KIB)
                time.sleep(0.005)
            except TeeSocketError as exc:
                caught = exc.errno
                break
        reported = sock.error()
        state_is_error = 1 if sock.state is SocketState.ERROR else 0
        return TeeResult.SUCCESS, (caught, reported, state_is_error)


@register_ta("test-bad-relay")
class _BadRelayTa:
    """Relays sends naming a region the session never shared and a window
    past the end of its scratch region, then an open whose staged
    arguments do not decode, then an open and an ioctl naming a region the
    session never shared; reports the errnos it got."""

    def on_invoke(self, env, command, params):
        scratch = env.scratch.descriptor
        unshared = scratch.region_id + 1  # ids are process-wide: not the scratch's
        unknown = env.rpc(Command.SOCK_SEND, unshared, 0, 16, DISCARD_HANDLE)
        outside = env.rpc(Command.SOCK_SEND, scratch.region_id,
                          scratch.window_length - 8, 16, DISCARD_HANDLE)
        env.scratch.stage(b"\x01", 1)
        malformed = env.rpc(Command.SOCK_OPEN, scratch.region_id, 0, 1, 0)
        unshared_open = env.rpc(Command.SOCK_OPEN, unshared, 0, 1, 0)
        unshared_ioctl = env.rpc(Command.SOCK_IOCTL, unshared, 0, 1, DISCARD_HANDLE)
        return TeeResult.SUCCESS, (-unknown, -outside, -malformed,
                                   -unshared_open, -unshared_ioctl)


@register_ta("test-unknown-ioctl")
class _UnknownIoctlTa:
    """Relays an ioctl whose code no socket knows to the discard sink and
    to a live TCP handle on the given port; reports, per handle, the
    errno of the ioctl and the handle's last errno after it."""

    def on_invoke(self, env, command, params):
        (port,) = params.values
        live = env.open_socket("127.0.0.1", port, Protocol.TCP)
        env.scratch.stage(struct.pack("<I", 99), 4)
        scratch = env.scratch.descriptor.region_id
        errnos = []
        for handle in (DISCARD_HANDLE, live.handle):
            errnos.append(-env.rpc(Command.SOCK_IOCTL, scratch, 0, 4, handle))
            errnos.append(env.rpc(Command.SOCK_ERROR, 0, 0, 0, handle))
        live.close()
        return TeeResult.SUCCESS, tuple(errnos)


@register_ta("test-stale-region")
class _StaleRegionTa:
    """Keeps the id of the region shared with the first invocation and
    relays a send naming it from the second; reports (failed, |status|)."""

    region_id = 0

    def on_invoke(self, env, command, params):
        if params.regions:
            self.region_id = params.regions[0].descriptor.region_id
            return TeeResult.SUCCESS
        status = env.rpc(Command.SOCK_SEND, self.region_id, 0, 16,
                         DISCARD_HANDLE)
        return TeeResult.SUCCESS, (int(status < 0), abs(status))


@register_ta("test-raiser")
class _RaisingTa:
    def on_invoke(self, env, command, params):
        raise ValueError("trusted app bug")


@register_ta("test-wide-send")
class _WideSendTa:
    """Sends 300 000 four-byte items, more bytes than the scratch window
    holds, to the discard socket; reports the bytes sent."""

    def on_invoke(self, env, command, params):
        sent = env.discard_socket().send(array("I", range(300_000)))
        return TeeResult.SUCCESS, (sent,)


@register_ta("test-small-send")
class _SmallSendTa:
    """Sends to the discard socket: command 1 an empty payload, command 2
    100 four-byte items, less than the scratch window, and command 3 the
    same items in a memoryview, which ``send`` does not wrap again;
    reports the bytes sent."""

    payloads = {1: b"", 2: array("I", range(100)),
                3: memoryview(array("I", range(100)))}

    def on_invoke(self, env, command, params):
        return TeeResult.SUCCESS, (env.discard_socket().send(self.payloads[command]),)


@register_ta("test-int-send")
class _IntSendTa:
    """Passes an int, not a buffer, to a relayed send."""

    def on_invoke(self, env, command, params):
        env.discard_socket().send(1024)


@register_ta("test-reader")
class _ReaderTa:
    """Reads a TCP peer through the boundary until EOF, then the discard
    socket once; reports (bytes read, their CRC-32, discard bytes)."""

    def on_invoke(self, env, command, params):
        (port,) = params.values
        sock = env.open_socket("127.0.0.1", port, Protocol.TCP)
        received = bytearray()
        while chunk := sock.recv(64 * KIB):
            received += chunk
        sock.close()
        discard = env.discard_socket().recv(16)
        return TeeResult.SUCCESS, (len(received), zlib.crc32(received),
                                   len(discard))


@register_ta("test-negative-recv")
class _NegativeRecvTa:
    """Calls recv(-1) on the discard socket; reports 1 for a ValueError,
    2 for any other exception and 0 when nothing was raised."""

    def on_invoke(self, env, command, params):
        try:
            env.discard_socket().recv(-1)
        except ValueError:
            return TeeResult.SUCCESS, (1,)
        except Exception:
            return TeeResult.SUCCESS, (2,)
        return TeeResult.SUCCESS, (0,)


@register_ta("test-closed-socket")
class _ClosedSocketTa:
    """Opens a relayed TCP socket and closes it, then tries send, recv,
    ioctl and close on it; reports each refusal's errno and error()."""

    def on_invoke(self, env, command, params):
        (port,) = params.values
        sock = env.open_socket("127.0.0.1", port, Protocol.TCP)
        sock.close()
        refusals = []
        for op in (lambda: sock.send(b"x"), lambda: sock.recv(16),
                   lambda: sock.ioctl(IoctlCode.SET_BUF_SIZES, (KIB, KIB)),
                   sock.close):
            try:
                op()
                refusals.append(0)
            except TeeSocketError as exc:
                refusals.append(exc.errno)
        return TeeResult.SUCCESS, (*refusals, sock.error())


@register_ta("test-open-oom")
class _OpenOomTa:
    def on_open(self, env, regions):
        env.alloc(TA_MEMORY_LIMIT + 1)


@register_ta("test-open-raiser")
class _OpenRaiserTa:
    def on_open(self, env, regions):
        raise ValueError("on_open bug")


@register_ta("test-open-refuser")
class _OpenRefuserTa:
    def on_open(self, env, regions):
        return TeeResult.BAD_PARAMETERS


@register_ta("test-open-keeper")
class _OpenKeeperTa:
    """Keeps the views it was opened with, in this process, then refuses
    the open; ``on_close`` must not run for it."""

    kept = []

    def on_open(self, env, regions):
        self.kept.extend([env.scratch, *regions])
        return TeeResult.BAD_PARAMETERS

    def on_close(self, env):
        raise AssertionError("on_close after a failed open")


@register_ta("test-exiter")
class _ExitingTa:
    """Ends its trusted process in the middle of an invocation."""

    def on_invoke(self, env, command, params):
        os._exit(3)


@register_ta("test-holder")
class _HolderTa:
    """Opens a relayed TCP socket to the port command 1 names; command 2
    closes it."""

    def on_invoke(self, env, command, params):
        if command == 1:
            (port,) = params.values
            self.sock = env.open_socket("127.0.0.1", port, Protocol.TCP)
        else:
            self.sock.close()


@register_ta("test-odd-status")
class _OddStatusTa:
    """Answers with a status outside ``TeeResult``: from ``on_open`` when
    opened with a region, else from command 1."""

    def on_open(self, env, regions):
        return 99 if regions else TeeResult.SUCCESS

    def on_invoke(self, env, command, params):
        return 99


@register_ta("test-accounting-script")
class _AccountingScriptTa:
    """Relays one of each kind of call: to a TCP peer on the given port a
    send, an ioctl and a recv; two sends to the discard sink; a send
    naming a region the session never shared (EFAULT) and one naming a
    handle never opened (EBADF); then the close. Reports each status."""

    def on_invoke(self, env, command, params):
        (port,) = params.values
        live = env.open_socket("127.0.0.1", port, Protocol.TCP)
        sent = live.send(b"x" * KIB)
        live.ioctl(IoctlCode.SET_BUF_SIZES, (64 * KIB, 64 * KIB))
        received = len(live.recv(4 * KIB))
        discard = env.discard_socket()
        discarded = discard.send(b"y" * 100) + discard.send(b"z" * 200)
        scratch = env.scratch.descriptor.region_id
        fault = env.rpc(Command.SOCK_SEND, scratch + 1, 0, 16, DISCARD_HANDLE)
        bad_handle = env.rpc(Command.SOCK_SEND, scratch, 0, 16, 999)
        live.close()
        return TeeResult.SUCCESS, (sent, received, discarded, -fault, -bad_handle)


class TestContextLifecycle:
    def test_initialize_gives_empty_context_and_zeroed_stats(self, transport):
        ctx = initialize_context(transport=transport)
        stats = ctx.stats
        assert stats.crossings == 0 and stats.rpc_count == 0
        assert stats.injected_cost_total == 0.0 and stats.bytes_copied == 0
        ctx.finalize()

    def test_finalize_with_live_session_is_context_busy(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        with pytest.raises(SessionStateError, match="context busy"):
            ctx.finalize()
        session.close()
        ctx.finalize()

    def test_finalize_with_unreleased_region_is_context_busy(self):
        ctx = initialize_context(transport="inline")
        region = ctx.allocate_shared_region(KIB, SharedMode.WHOLE)
        with pytest.raises(SessionStateError, match="context busy"):
            ctx.finalize()
        ctx.release_region(region)
        ctx.finalize()

    def test_region_allocation_cap(self):
        # 32 + 48 MiB is over the 64 MiB cap; the tmpfs files are sparse
        ctx = initialize_context(transport="inline")
        region = ctx.allocate_shared_region(32 * MIB, SharedMode.WHOLE)
        from teebench.boundary import RegionAllocationError

        with pytest.raises(RegionAllocationError):
            ctx.allocate_shared_region(48 * MIB, SharedMode.WHOLE)
        ctx.release_region(region)
        ctx.finalize()

    def test_unknown_ta_name(self, transport):
        ctx = initialize_context(transport=transport)
        with pytest.raises(TaNotFoundError):
            ctx.open_session("no-such-ta")
        ctx.finalize()

    def test_close_twice_errors(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        session.close()
        with pytest.raises(SessionStateError):
            session.close()
        ctx.finalize()

    def test_an_unknown_transport_is_refused_by_name(self):
        with pytest.raises(ValueError, match="'bogus'"):
            initialize_context(transport="bogus")

    def test_a_closed_session_is_freed_without_a_cycle_collection(self, transport):
        ctx = initialize_context(transport=transport)
        held = len(context._held)
        gc.disable()
        try:
            session = ctx.open_session("probe")
            session.close()
            closed = weakref.ref(session)
            del session
            assert closed() is None
            assert len(context._held) == held
        finally:
            gc.enable()
        ctx.finalize()

    def test_finalize_twice_errors(self):
        ctx = initialize_context(transport="inline")
        ctx.finalize()
        with pytest.raises(SessionStateError, match="context already finalized"):
            ctx.finalize()

    def test_invoke_after_close_errors(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        session.close()
        with pytest.raises(SessionStateError):
            session.invoke(0)
        ctx.finalize()


class TestFailingOpen:
    """``on_open`` runs under the same policy as ``on_invoke``."""

    def test_out_of_memory_in_on_open_is_named(self, transport):
        ctx = initialize_context(transport=transport)
        with pytest.raises(BoundaryError, match="OUT_OF_MEMORY"):
            ctx.open_session("test-open-oom")
        ctx.finalize()

    def test_unmapped_exception_in_on_open_is_generic_with_traceback(
            self, transport, capfd):
        ctx = initialize_context(transport=transport)
        with pytest.raises(BoundaryError, match="GENERIC"):
            ctx.open_session("test-open-raiser")
        ctx.finalize()
        assert "ValueError: on_open bug" in capfd.readouterr().err

    def test_status_returned_by_on_open_fails_the_open(self, transport):
        ctx = initialize_context(transport=transport)
        with pytest.raises(BoundaryError, match="BAD_PARAMETERS"):
            ctx.open_session("test-open-refuser")
        ctx.finalize()

    def test_a_failed_open_revokes_every_trusted_mapping(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(4 * KIB, SharedMode.WHOLE)
        try:
            with pytest.raises(BoundaryError, match="BAD_PARAMETERS"):
                ctx.open_session("test-open-keeper", args_regions=(region,))
            # only the inline channel runs on_open in this process
            kept = _OpenKeeperTa.kept
            assert len(kept) == (2 if transport == "inline" else 0)
            assert all(view.revoked for view in kept)
        finally:
            _OpenKeeperTa.kept.clear()
        session = ctx.open_session("probe", args_regions=(region,))
        session.close()
        ctx.release_region(region)
        ctx.finalize()

    def test_unknown_status_from_on_open_is_named(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(KIB, SharedMode.WHOLE)
        with pytest.raises(BoundaryError, match="unknown status 99"):
            ctx.open_session("test-odd-status", args_regions=(region,))
        assert ctx.stats.crossings == 2
        ctx.release_region(region)
        ctx.finalize()


class TestCrossingAccounting:
    def test_open_session_costs_one_entry_and_one_return(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        assert ctx.stats.crossings == 2
        session.close()
        assert ctx.stats.crossings == 4
        ctx.finalize()

    def test_noop_invoke_adds_two_crossings_and_no_rpcs(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        before = ctx.stats
        result = session.invoke(0)
        assert result.status == TeeResult.SUCCESS
        after = ctx.stats
        assert after.crossings - before.crossings == 2
        assert after.rpc_count == before.rpc_count == 0
        session.close()
        ctx.finalize()

    def test_scripted_sends_match_the_crossing_formula(self, transport):
        # N relayed sends and M = 3 ops (open, one invoke, close)
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        result = session.invoke(ProbeCommand.SEND_DISCARD, values=(100, KIB))
        assert result.status == TeeResult.SUCCESS
        assert result.values == (100 * KIB,)
        session.close()
        stats = ctx.stats
        assert stats.crossings == 2 * (100 + 3)
        assert stats.rpc_count == 100
        assert stats.bytes_copied == 100 * KIB
        ctx.finalize()

    def test_random_scripts_follow_two_n_plus_m(self):
        rng = random.Random(7)
        for _ in range(5):
            counts = [rng.randrange(0, 30) for _ in range(rng.randrange(1, 6))]
            ctx = initialize_context(transport="inline")
            session = ctx.open_session("probe")
            for count in counts:
                if count == 0:
                    session.invoke(0)
                else:
                    session.invoke(ProbeCommand.SEND_DISCARD, values=(count, 16))
            session.close()
            expected = 2 * (sum(counts) + len(counts) + 2)
            assert ctx.stats.crossings == expected
            ctx.finalize()

    def test_injected_cost_total_is_crossings_times_cost(self, transport):
        cost = 0.0002
        ctx = initialize_context(transport=transport, switch_cost=cost)
        session = ctx.open_session("probe")
        session.invoke(ProbeCommand.SEND_DISCARD, values=(10, 64))
        session.close()
        stats = ctx.stats
        assert stats.injected_cost_total == pytest.approx(stats.crossings * cost)
        ctx.finalize()

    def test_each_crossing_injects_the_switch_cost_once(self, transport,
                                                       monkeypatch):
        injected = []
        monkeypatch.setattr(clock, "inject_delay", injected.append)
        ctx = initialize_context(transport=transport, switch_cost=1e-6)
        session = ctx.open_session("probe")
        session.invoke(ProbeCommand.SEND_DISCARD, values=(5, 64))
        session.close()
        crossings = ctx.stats.crossings
        ctx.finalize()
        assert crossings == 2 * (5 + 3)
        assert injected == [1e-6] * crossings

    def test_switch_cost_stretches_wall_time(self, transport):
        # c = 5 ms is far above scheduling noise
        def run(cost):
            ctx = initialize_context(transport=transport, switch_cost=cost)
            session = ctx.open_session("probe")
            t0 = clock.monotonic()
            session.invoke(ProbeCommand.SEND_DISCARD, values=(20, 64))
            elapsed = clock.monotonic() - t0
            session.close()
            crossings = ctx.stats.crossings
            ctx.finalize()
            return elapsed, crossings

        base, _ = run(0.0)
        slow, crossings_during = run(0.005)
        injected = (2 * 20 + 2) * 0.005      # crossings inside the invoke
        assert slow - base >= injected * 0.85
        assert crossings_during == 2 * (20 + 3)


class TestStatsAcrossSessionLifetimes:
    def test_a_failed_open_is_counted_and_leaves_the_context_idle(self, transport):
        ctx = initialize_context(transport=transport)
        with pytest.raises(TaNotFoundError):
            ctx.open_session("no-such-ta")
        assert ctx.stats.crossings == 2
        ctx.finalize()

    def test_live_sessions_are_summed_on_read_and_folded_on_close(self, transport):
        ctx = initialize_context(transport=transport)
        first, second = ctx.open_session("probe"), ctx.open_session("probe")
        first.invoke(ProbeCommand.SEND_DISCARD, values=(3, 64))
        second.invoke(ProbeCommand.SEND_DISCARD, values=(5, 128))
        live = ctx.stats
        parts = (first._stats, second._stats)
        assert live.crossings == sum(p.crossings for p in parts) == 2 * (4 + 8)
        assert live.rpc_count == sum(p.rpc_count for p in parts) == 8
        assert live.bytes_copied == sum(p.bytes_copied for p in parts) == 832
        first.close()
        second.close()
        closed = ctx.stats
        assert closed.crossings == live.crossings + 4
        assert (closed.rpc_count, closed.bytes_copied) == (8, 832)
        ctx.finalize()


class TestTaMemory:
    def test_allocation_over_cap_returns_out_of_memory(self, transport):
        # the budget is TA_MEMORY_LIMIT (1 MiB)
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        assert session.invoke(ProbeCommand.ALLOC, values=(512 * KIB,)).status \
            == TeeResult.SUCCESS
        result = session.invoke(ProbeCommand.ALLOC, values=(768 * KIB,))
        assert result.status == TeeResult.OUT_OF_MEMORY
        session.close()
        ctx.finalize()

    def test_oversized_chunk_in_boundary_run_returns_out_of_memory(self):
        # bypass config validation to hit the runtime's own cap
        from teebench.boundary.tas import TrafficCommand, write_json

        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=KIB,
                        chunk_size=2 * 1024 * 1024, port=1)
        ctx = initialize_context(transport="inline")
        args = ctx.allocate_shared_region(16 * KIB, SharedMode.WHOLE)
        metrics = ctx.allocate_shared_region(16 * KIB, SharedMode.WHOLE)
        write_json(args.window_write, cfg.to_dict())
        session = ctx.open_session("traffic")
        result = session.invoke(TrafficCommand.RUN, regions=(args, metrics))
        assert result.status == TeeResult.OUT_OF_MEMORY
        session.close()
        ctx.release_region(args)
        ctx.release_region(metrics)
        ctx.finalize()


class TestStatusAndStaleRegions:
    def test_unknown_invoke_status_is_a_boundary_error(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-odd-status")
        before = ctx.stats.crossings
        with pytest.raises(BoundaryError, match="unknown status 99") as caught:
            session.invoke(1)
        assert not isinstance(caught.value, ValueError)
        assert ctx.stats.crossings == before + 2
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        assert ctx.stats.crossings == before + 4
        session.close()
        ctx.finalize()

    @pytest.mark.parametrize("staged, length, error", [
        (b"", TA_MEMORY_LIMIT + 1, "outside"),        # past the scratch window
        (b"\x05", 1, "malformed INVOKE reply"),       # one byte of an operation
    ], ids=["past-the-window", "malformed"])
    def test_a_bad_reply_is_a_boundary_error_and_the_session_goes_on(
            self, transport, monkeypatch, staged, length, error):
        # patched before the open, so the forked trusted process has it too;
        # it answers the first INVOKE of its process with the bad reply
        dispatch = TrustedRuntime.dispatch
        lied = []

        def lying_dispatch(self, command, request_length):
            status, reply_length = dispatch(self, command, request_length)
            if command == Command.INVOKE and not lied:
                lied.append(reply_length)
                self.env.scratch.stage(staged, len(staged))
                return status, length
            return status, reply_length

        monkeypatch.setattr(TrustedRuntime, "dispatch", lying_dispatch)
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        before = ctx.stats.crossings
        with pytest.raises(BoundaryError, match=error):
            session.invoke(NOOP_COMMAND)
        assert ctx.stats.crossings == before + 2
        assert session.invoke(NOOP_COMMAND) == (TeeResult.SUCCESS, ())
        session.close()
        ctx.finalize()

    @pytest.mark.parametrize("values", [(-1,), tuple(range(300)), (2**64,), (1.5,)],
                             ids=["negative", "too-many-parameters", "over-u64",
                                  "float"])
    def test_invoke_values_that_do_not_fit_are_a_value_error_before_crossing(
            self, transport, values):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        before = ctx.stats.crossings
        with pytest.raises(ValueError):
            session.invoke(NOOP_COMMAND, values=values)
        assert ctx.stats.crossings == before
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        session.close()
        ctx.finalize()

    def test_released_region_cannot_open_a_session(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(KIB, SharedMode.WHOLE)
        ctx.release_region(region)
        with pytest.raises(RegionFault):
            region.descriptor
        with pytest.raises(RegionFault):
            ctx.open_session("probe", args_regions=(region,))
        assert ctx.stats.crossings == 0
        session = ctx.open_session("probe")
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        session.close()
        ctx.finalize()

    def test_released_region_cannot_be_invoked_with(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        region = ctx.allocate_shared_region(KIB, SharedMode.TEMPORARY)
        ctx.release_region(region)
        before = ctx.stats.crossings
        with pytest.raises(RegionFault):
            session.invoke(ProbeCommand.STASH, regions=(region,))
        assert ctx.stats.crossings == before
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        assert ctx.stats.crossings == before + 2
        session.close()
        ctx.finalize()


class TestRegionLifetimes:
    def test_temporary_region_faults_after_its_invocation(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(4 * KIB, SharedMode.TEMPORARY)
        session = ctx.open_session("probe")
        stash = session.invoke(ProbeCommand.STASH, regions=(region,))
        assert stash.status == TeeResult.SUCCESS
        touch = session.invoke(ProbeCommand.TOUCH_STASHED,
                               values=(TouchOp.READ, 0, 16))
        assert touch.status == TeeResult.ACCESS_FAULT
        session.close()
        ctx.release_region(region)
        ctx.finalize()

    def test_temporary_args_region_invalid_after_open(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(4 * KIB, SharedMode.TEMPORARY)
        session = ctx.open_session("probe", args_regions=(region,))
        touch = session.invoke(ProbeCommand.TOUCH_STASHED,
                               values=(TouchOp.READ, 0, 16))
        assert touch.status == TeeResult.ACCESS_FAULT
        session.close()
        ctx.release_region(region)
        ctx.finalize()

    def test_session_bound_region_lives_across_invocations(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(4 * KIB, SharedMode.WHOLE)
        session = ctx.open_session("probe", args_regions=(region,))
        for _ in range(3):
            touch = session.invoke(ProbeCommand.TOUCH_STASHED,
                                   values=(TouchOp.WRITE, 0, 16))
            assert touch.status == TeeResult.SUCCESS
        assert region.window_read(0, 16) == b"\xab" * 16
        session.close()
        ctx.release_region(region)
        ctx.finalize()

    def test_session_bound_region_faults_after_close(self):
        # the inline channel keeps the trusted runtime reachable after close
        ctx = initialize_context(transport="inline")
        for mode in (SharedMode.WHOLE, SharedMode.PARTIAL):
            offset = 0 if mode is SharedMode.WHOLE else KIB
            region = ctx.allocate_shared_region(
                4 * KIB, mode, offset=offset)
            session = ctx.open_session("probe", args_regions=(region,))
            assert session.invoke(ProbeCommand.TOUCH_STASHED,
                                  values=(TouchOp.READ, 0, 8)).status \
                == TeeResult.SUCCESS
            stashed_view = session._channel.runtime.ta._stashed
            session.close()
            with pytest.raises(RegionFault):
                stashed_view.read(0, 8)
            ctx.release_region(region)
        ctx.finalize()

    @pytest.mark.parametrize("mode", list(SharedMode))
    def test_out_of_window_access_is_a_fault_not_truncation(self, mode, transport):
        ctx = initialize_context(transport=transport)
        offset = 0 if mode is SharedMode.WHOLE else KIB
        region = ctx.allocate_shared_region(4 * KIB, mode, offset=offset,
                                            length=None if mode is SharedMode.WHOLE else 2 * KIB)
        session = ctx.open_session("probe")
        window = region.window_length
        good = session.invoke(ProbeCommand.TOUCH, regions=(region,),
                              values=(TouchOp.WRITE, window - 8, 8))
        assert good.status == TeeResult.SUCCESS
        bad = session.invoke(ProbeCommand.TOUCH, regions=(region,),
                             values=(TouchOp.WRITE, window - 8, 16))
        assert bad.status == TeeResult.ACCESS_FAULT
        session.close()
        ctx.release_region(region)
        ctx.finalize()


class TestRegionIdentity:
    """Region ids are process-wide, so the first region of two contexts
    is two regions to the trusted side's view cache and to each
    context's registry."""

    def test_another_contexts_region_is_not_served_a_cached_view(self, transport):
        a = initialize_context(transport=transport)
        b = initialize_context(transport=transport)
        a_region = a.allocate_shared_region(4 * KIB, SharedMode.WHOLE)
        b_region = b.allocate_shared_region(4 * KIB, SharedMode.WHOLE)
        session = b.open_session("probe")
        assert session.invoke(ProbeCommand.TOUCH, regions=(b_region,),
                              values=(TouchOp.READ, 0, 16)).status \
            == TeeResult.SUCCESS
        probe = session.invoke(ProbeCommand.TOUCH, regions=(a_region,),
                               values=(TouchOp.WRITE, 0, 16))
        assert probe.status == TeeResult.SUCCESS
        assert a_region.window_read(0, 16) == b"\xab" * 16
        assert b_region.window_read(0, 16) == bytes(16)
        session.close()
        a.release_region(a_region)
        b.release_region(b_region)
        a.finalize()
        b.finalize()

    def test_releasing_another_contexts_region_leaves_the_registry(self, transport):
        a = initialize_context(transport=transport)
        b = initialize_context(transport=transport)
        a_region = a.allocate_shared_region(KIB, SharedMode.WHOLE)
        b_region = b.allocate_shared_region(KIB, SharedMode.WHOLE)
        a.release_region(b_region)
        with pytest.raises(SessionStateError, match="1 unreleased region"):
            a.finalize()
        a.release_region(a_region)
        a.finalize()
        b.finalize()

    def test_a_mode_that_is_not_a_shared_mode_is_refused_at_allocation(self):
        from teebench.boundary import RegionAllocationError

        ctx = initialize_context(transport="inline")
        with pytest.raises(RegionAllocationError, match="'whole'"):
            ctx.allocate_shared_region(KIB, "whole")
        ctx.finalize()


class TestBuiltinRefusals:
    """The built-in applications answer a command they do not know, or
    one without the regions it needs, with a status, on both transports."""

    @pytest.fixture
    def regions(self, transport):
        ctx = initialize_context(transport=transport)
        regions = [ctx.allocate_shared_region(4 * KIB, SharedMode.WHOLE)
                   for _ in range(2)]
        yield ctx, regions
        for region in regions:
            ctx.release_region(region)
        ctx.finalize()

    def _invoke(self, ctx, ta_name, command, regions=(), values=()):
        session = ctx.open_session(ta_name)
        try:
            return session.invoke(command, regions=regions, values=values).status
        finally:
            session.close()

    def test_traffic_refuses_an_unknown_command(self, regions):
        ctx, shared = regions
        assert self._invoke(ctx, "traffic", 99, shared) == TeeResult.NOT_SUPPORTED

    def test_traffic_refuses_one_region_instead_of_two(self, regions):
        from teebench.boundary.tas import TrafficCommand

        ctx, shared = regions
        assert self._invoke(ctx, "traffic", TrafficCommand.RUN, shared[:1]) \
            == TeeResult.BAD_PARAMETERS

    def test_kv_refuses_a_command_with_no_data_region(self, regions):
        from teebench.boundary.tas import KvCommand

        ctx, _ = regions
        assert self._invoke(ctx, "kv", KvCommand.GET, values=(1, 0)) \
            == TeeResult.BAD_PARAMETERS

    def test_kv_refuses_an_unknown_command(self, regions):
        ctx, shared = regions
        assert self._invoke(ctx, "kv", 99, shared[:1]) == TeeResult.NOT_SUPPORTED


class TestSocketFacade:
    def test_send_through_the_relay_reaches_the_server(self, tcp_server, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        result = session.invoke(
            ProbeCommand.SOCKET_SMOKE,
            values=(tcp_server.port, 4, 128 * KIB, 1, 128 * KIB),
        )
        assert result.status == TeeResult.SUCCESS
        assert result.values == (4 * 128 * KIB,)
        record = tcp_server.wait_for_records(1)[0]
        assert record.bytes_received == 4 * 128 * KIB
        session.close()
        ctx.finalize()

    def test_udp_set_peer_retargets_subsequent_sends(self, transport, monkeypatch):
        from teebench.server import BenchmarkServer, ServerConfig

        monkeypatch.setattr("teebench.server.UDP_IDLE_TIMEOUT", 0.2)
        cfg = ServerConfig(bind="127.0.0.1", port=0, protocol=Protocol.UDP)
        with BenchmarkServer(cfg) as a, BenchmarkServer(cfg) as b:
            ctx = initialize_context(transport=transport)
            session = ctx.open_session("probe")
            result = session.invoke(ProbeCommand.UDP_RETARGET,
                                    values=(a.port, b.port, 2 * KIB))
            assert result.status == TeeResult.SUCCESS
            assert result.values == (2 * KIB, 2 * KIB)
            rec_a = a.wait_for_records(1)[0]
            rec_b = b.wait_for_records(1)[0]
            assert rec_a.bytes_received == 2 * KIB
            assert rec_b.bytes_received == 2 * KIB
            session.close()
            ctx.finalize()

    def test_connection_refused_errno_is_surfaced(self, transport):
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        dead_port = sink.getsockname()[1]
        sink.close()  # nothing listens there now
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        result = session.invoke(ProbeCommand.OPEN_ERRNO, values=(dead_port,))
        assert result.status == TeeResult.SUCCESS
        import errno as errno_mod

        assert result.values == (errno_mod.ECONNREFUSED,)
        session.close()
        ctx.finalize()

    def test_a_closed_socket_refuses_all_but_error_without_crossing(
            self, tcp_server, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-closed-socket")
        result = session.invoke(1, values=(tcp_server.port,))
        assert result.status == TeeResult.SUCCESS
        assert result.values == (errno.EBADF,) * 4 + (0,)
        assert ctx.stats.rpc_count == 3  # open, close, error
        session.close()
        ctx.finalize()

    def test_negative_recv_is_a_value_error_before_crossing(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-negative-recv")
        result = session.invoke(1)
        assert result.status == TeeResult.SUCCESS
        assert result.values == (1,)
        assert ctx.stats.rpc_count == 0
        session.close()
        ctx.finalize()

    def test_peer_hangup_errno_reaches_error_facade(self, transport):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def accept_and_slam():
            conn, _ = listener.accept()
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
            conn.close()

        slammer = threading.Thread(target=accept_and_slam, daemon=True)
        slammer.start()
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-flaky-socket")
        result = session.invoke(1, values=(listener.getsockname()[1],))
        slammer.join()
        listener.close()
        assert result.status == TeeResult.SUCCESS
        caught, reported, state_is_error = result.values
        assert caught in (32, 104)          # EPIPE or ECONNRESET
        assert reported == caught
        assert state_is_error == 1
        session.close()
        ctx.finalize()


    def test_send_stages_bytes_not_items(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-wide-send")
        result = session.invoke(1)
        session.close()
        stats = ctx.stats
        ctx.finalize()
        assert (result.status, result.values) == (TeeResult.SUCCESS, (1_200_000,))
        assert stats.bytes_copied == 1_200_000

    def test_an_empty_send_returns_0_without_crossing(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-small-send")
        before = ctx.stats
        result = session.invoke(1)
        after = ctx.stats
        session.close()
        ctx.finalize()
        assert (result.status, result.values) == (TeeResult.SUCCESS, (0,))
        # the invocation's own entry and return, and nothing relayed
        assert after.crossings - before.crossings == 2
        assert (after.rpc_count, after.bytes_copied) == (0, 0)

    def test_items_under_one_window_are_one_relayed_call_of_their_bytes(
            self, transport, monkeypatch):
        staged = []
        service = Supplicant.service

        def recording(self, msg, regions):  # runs in the normal world
            staged.append(regions[msg[1]].window_read(msg[2], msg[3]))
            return service(self, msg, regions)

        monkeypatch.setattr(Supplicant, "service", recording)
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-small-send")
        results = [session.invoke(command) for command in (2, 3)]
        session.close()
        stats = ctx.stats
        ctx.finalize()
        assert results == [(TeeResult.SUCCESS, (400,))] * 2
        assert (stats.rpc_count, stats.bytes_copied) == (2, 800)
        assert staged == [array("I", range(100)).tobytes()] * 2

    def test_the_supplicant_is_served_exact_header_tuples(
            self, transport, monkeypatch):
        # CPython specialises unpacking and indexing only for an exact
        # tuple; a Message (a tuple subclass) would slow every relayed
        # call's unpack in ``service`` and its command checks
        served = []
        service = Supplicant.service

        def recording(self, msg, regions):
            served.append(type(msg))
            return service(self, msg, regions)

        monkeypatch.setattr(Supplicant, "service", recording)
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        result = session.invoke(ProbeCommand.SEND_DISCARD, values=(3, KIB))
        session.close()
        ctx.finalize()
        assert result.values == (3 * KIB,)
        assert served == [tuple] * 3

    def test_recv_through_the_relay_reads_the_peer_to_eof(self, transport):
        payload = random.Random(5).randbytes(100_000)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def send_and_hang_up():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(payload)

        peer = threading.Thread(target=send_and_hang_up, daemon=True)
        peer.start()
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-reader")
        result = session.invoke(1, values=(listener.getsockname()[1],))
        peer.join(timeout=10)
        listener.close()
        session.close()
        stats = ctx.stats
        ctx.finalize()
        assert result.status == TeeResult.SUCCESS
        assert result.values == (100_000, zlib.crc32(payload), 0)
        assert stats.bytes_copied == 100_000


class _FakeScratch:
    """The slice of a trusted scratch view a ``TeeSocket`` binds."""

    window_length = 4
    descriptor = SimpleNamespace(region_id=7)

    def stage(self, data, n):
        pass


class TestTeeSocketRelayResults:
    """What a ``TeeSocket`` makes of its relayed calls' statuses, over a
    fake relay port that records each call."""

    def socket_over(self, *statuses):
        calls = []
        replies = iter(statuses)

        def rpc(command, region_id, offset, length, handle):
            calls.append((command, length))
            return next(replies)

        return TeeSocket(SimpleNamespace(scratch=_FakeScratch(), rpc=rpc), 3), calls

    def test_a_send_over_the_window_stops_at_the_first_short_piece(self):
        sock, calls = self.socket_over(4, 1, 4)
        assert sock.send(b"x" * 10) == 5
        assert calls == [(Command.SOCK_SEND, 4), (Command.SOCK_SEND, 4)]

    def test_a_failed_relayed_close_raises_its_errno_and_closes(self):
        sock, calls = self.socket_over(-errno.EIO)
        with pytest.raises(TeeSocketError) as exc:
            sock.close()
        assert exc.value.errno == errno.EIO
        assert sock.state is SocketState.CLOSED
        assert calls == [(Command.SOCK_CLOSE, 0)]


class TestFaultContainment:
    def test_bad_relay_is_an_errno_and_close_finishes(
            self, transport, shm_segments):
        before = shm_segments()
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-bad-relay")
        result = session.invoke(1)
        assert result.status == TeeResult.SUCCESS
        assert result.values == (errno.EFAULT, errno.EFAULT, errno.EINVAL,
                                 errno.EFAULT, errno.EFAULT)
        closer = threading.Thread(target=session.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() hung after a faulting relay"
        assert session.closed
        ctx.finalize()
        assert shm_segments() == before

    def test_relay_naming_an_expired_temporary_region_faults(self, transport):
        ctx = initialize_context(transport=transport)
        region = ctx.allocate_shared_region(4 * KIB, SharedMode.TEMPORARY)
        session = ctx.open_session("test-stale-region")
        assert session.invoke(1, regions=(region,)).status == TeeResult.SUCCESS
        result = session.invoke(1)
        assert result.status == TeeResult.SUCCESS
        assert result.values == (1, errno.EFAULT)
        session.close()
        ctx.release_region(region)
        ctx.finalize()

    def test_unmapped_trusted_exception_is_generic(self, transport, capfd):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-raiser")
        assert session.invoke(1) == (TeeResult.GENERIC, ())  # nothing staged
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        session.close()
        ctx.finalize()
        assert "ValueError: trusted app bug" in capfd.readouterr().err

    def test_a_type_error_in_a_relay_body_is_generic(self, transport, capfd):
        fds = len(os.listdir("/proc/self/fd"))
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-int-send")
        assert session.invoke(1).status == TeeResult.GENERIC
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        session.close()
        stats = ctx.stats
        ctx.finalize()
        assert stats.rpc_count == 0
        # the autouse fixture checks that no child is left behind
        assert len(os.listdir("/proc/self/fd")) == fds
        assert "TypeError: memoryview" in capfd.readouterr().err

    def test_unmapped_supplicant_exception_is_eio(
            self, transport, tcp_server, monkeypatch, capfd):
        def broken_send(self, data):
            raise TypeError("supplicant bug")

        monkeypatch.setattr(OsSocket, "send", broken_send)
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        result = session.invoke(ProbeCommand.SOCKET_SMOKE,
                                values=(tcp_server.port, 1, KIB, 1, 0))
        assert result.status == TeeResult.GENERIC
        assert session.invoke(NOOP_COMMAND).status == TeeResult.SUCCESS
        session.close()
        stats = ctx.stats
        ctx.finalize()
        # open, invoke (SOCK_OPEN and the failed SOCK_SEND), noop, close
        assert (stats.crossings, stats.rpc_count, stats.bytes_copied) == (
            2 + 2 + 2 * 2 + 2 + 2, 2, 0)
        assert "TypeError: supplicant bug" in capfd.readouterr().err

    def test_trusted_process_death_is_a_boundary_error_on_invoke_and_close(self):
        fds = len(os.listdir("/proc/self/fd"))
        ctx = initialize_context(transport="process")
        session = ctx.open_session("test-exiter")
        with pytest.raises(BoundaryError, match="terminated unexpectedly"):
            session.invoke(1)
        time.sleep(0.3)  # the child has finished exiting before CLOSE is written
        with pytest.raises(BoundaryError, match="terminated unexpectedly"):
            session.close()
        assert session.closed
        ctx.finalize()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_many_zero_copy_sends_leave_the_scratch_releasable(
            self, transport, tcp_server):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("probe")
        result = session.invoke(ProbeCommand.SOCKET_SMOKE,
                                values=(tcp_server.port, 1000, KIB, 1, 0))
        assert result.values == (1000 * KIB,)
        assert tcp_server.wait_for_records(1)[0].bytes_received == 1000 * KIB
        session.close()  # releases the scratch mapping the sends viewed
        ctx.finalize()
        assert session._scratch.released


def _probe_script(transport):
    """The same probe steps over one transport: (status, values) per step
    and the boundary statistics at the end."""
    ctx = initialize_context(transport=transport, switch_cost=1e-6)
    args = ctx.allocate_shared_region(4 * KIB, SharedMode.WHOLE)
    temp = ctx.allocate_shared_region(4 * KIB, SharedMode.TEMPORARY)
    session = ctx.open_session("probe", args_regions=(args,))
    steps = [
        session.invoke(ProbeCommand.TOUCH, regions=(args,),
                       values=(TouchOp.WRITE, 0, 16)),
        session.invoke(ProbeCommand.TOUCH, regions=(args,),
                       values=(TouchOp.WRITE, 4 * KIB - 8, 16)),
        session.invoke(ProbeCommand.TOUCH_STASHED, values=(TouchOp.READ, 0, 8)),
        session.invoke(ProbeCommand.STASH, regions=(temp,)),
        session.invoke(ProbeCommand.TOUCH_STASHED, values=(TouchOp.READ, 0, 8)),
        session.invoke(ProbeCommand.SEND_DISCARD, values=(7, KIB)),
        session.invoke(ProbeCommand.ALLOC, values=(2 * MIB,)),
    ]
    session.close()
    ctx.release_region(args)
    ctx.release_region(temp)
    stats = ctx.stats
    ctx.finalize()
    return [(r.status, r.values) for r in steps], stats


def test_both_transports_answer_a_probe_script_alike():
    inline_steps, inline_stats = _probe_script("inline")
    process_steps, process_stats = _probe_script("process")
    assert inline_steps == process_steps
    assert [status for status, _ in inline_steps] == [
        TeeResult.SUCCESS, TeeResult.ACCESS_FAULT, TeeResult.SUCCESS,
        TeeResult.SUCCESS, TeeResult.ACCESS_FAULT, TeeResult.SUCCESS,
        TeeResult.OUT_OF_MEMORY,
    ]
    assert inline_stats == process_stats
    assert inline_stats.crossings == 2 * (7 + 7 + 2)


def _accounting_script(transport, monkeypatch):
    """The accounting script over one transport against a TCP peer that
    writes 512 bytes and reads to EOF: the invoke's result, the boundary
    statistics and each delay injected."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def peer():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(b"p" * 512)
            while conn.recv(64 * KIB):
                pass

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    injected = []
    monkeypatch.setattr(clock, "inject_delay", injected.append)
    try:
        ctx = initialize_context(transport=transport, switch_cost=1e-6)
        session = ctx.open_session("test-accounting-script")
        result = session.invoke(1, values=(listener.getsockname()[1],))
        session.close()
        stats = ctx.stats
        ctx.finalize()
    finally:
        monkeypatch.undo()
        thread.join(timeout=10)
        listener.close()
    return result, stats, injected


def test_both_transports_account_relayed_calls_alike(monkeypatch):
    # the process channel serves relayed calls in its own loop, with its
    # own copy of the accounting the inline channel gets from Session
    runs = {t: _accounting_script(t, monkeypatch) for t in ("inline", "process")}
    (inline, inline_stats, _), (process, process_stats, _) = runs.values()
    assert inline == process == (
        TeeResult.SUCCESS, (KIB, 512, 300, errno.EFAULT, errno.EBADF))
    assert inline_stats == process_stats
    # open, send, ioctl, recv, two discard sends, EFAULT, EBADF, close
    assert inline_stats.rpc_count == 9
    assert inline_stats.crossings == 2 * (9 + 3)
    assert inline_stats.bytes_copied == KIB + 512 + 300
    for _, stats, injected in runs.values():
        assert injected == [1e-6] * stats.crossings


def test_the_trusted_world_frames_through_the_traced_names(monkeypatch):
    # a tracer's wrappers reach the trusted process only by inheritance, so
    # they are set before the session forks it; a frame the trusted world
    # wrote or read around these names would vanish from its self times
    sends, parent = 5, os.getpid()
    counts = mmap.mmap(-1, 8)  # the trusted world's reads, then its writes

    def counting(slot, fn):
        def counted(*args):
            if os.getpid() == parent:
                return fn(*args)
            if slot:  # before the frame goes, so the parent sees the count
                struct.pack_into("I", counts, 4, struct.unpack_from(
                    "I", counts, 4)[0] + 1)
            result = fn(*args)
            if not slot:  # after the frame came, so an idle wait is not one
                struct.pack_into("I", counts, 0, struct.unpack_from(
                    "I", counts, 0)[0] + 1)
            return result
        return counted

    monkeypatch.setattr(context, "read_message",
                        counting(0, context.read_message))
    monkeypatch.setattr(context, "write_message",
                        counting(1, context.write_message))
    ctx = initialize_context(transport="process")
    session = ctx.open_session("probe")
    try:
        before = struct.unpack("II", counts)
        session.invoke(ProbeCommand.SEND_DISCARD, values=(sends, KIB))
        after = struct.unpack("II", counts)
    finally:
        session.close()
        ctx.finalize()
        counts.close()
    # the INVOKE and each relayed call's reply in; each request and RETURN out
    assert (after[0] - before[0], after[1] - before[1]) == (sends + 1, sends + 1)


# opens a process session, prints its trusted child's pid, then waits
_ORPHANING_RUN = """
import time
import teebench.runner
from teebench.boundary import initialize_context
session = initialize_context(transport="process").open_session("probe")
print(session._channel._pid, flush=True)
time.sleep(60)
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time process ``pid`` has used."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # stat fields 14 and 15; the split starts at field 3, the state
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _memfd_holds(pid: int, inode: int) -> tuple[int, int]:
    """(fd links, mapping lines) of process ``pid`` on memfd ``inode``."""
    links = 0
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            links += os.stat(f"/proc/{pid}/fd/{fd}").st_ino == inode
        except OSError:  # a link that is not a file, or gone since the listing
            pass
    with open(f"/proc/{pid}/maps") as f:
        maps = sum(1 for line in f if line.split()[4] == str(inode))
    return links, maps


def _fd_files(pid: int) -> set[tuple[int, int]]:
    """(device, inode) of every file process ``pid`` has an fd on."""
    files = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            st = os.stat(f"/proc/{pid}/fd/{fd}")
        except OSError:  # gone since the listing
            continue
        files.add((st.st_dev, st.st_ino))
    return files


def _mapping_inode(buffer) -> int:
    """Inode of the mapping in this process that holds ``buffer``."""
    anchor = ctypes.c_char.from_buffer(buffer)
    address = ctypes.addressof(anchor)
    del anchor  # else the buffer could not be closed
    with open("/proc/self/maps") as f:
        for line in f:
            span, _, _, _, inode = line.split()[:5]
            start, end = (int(a, 16) for a in span.split("-"))
            if start <= address < end:
                return int(inode)
    raise LookupError(f"no mapping holds {address:#x}")


def _sem_names() -> set[str]:
    """POSIX semaphore names of the package; glibc keeps them in /dev/shm."""
    return {n for n in os.listdir("/dev/shm") if n.startswith("sem.teebench")}


def _file_id(fd: int) -> tuple[int, int]:
    st = os.fstat(fd)
    return st.st_dev, st.st_ino


# writes a marker without flushing, then opens and closes a process
# session whose trusted app prints a second marker when closed
_STDIO_RUN = """
import sys
from teebench.boundary import initialize_context, register_ta

@register_ta("stdio-closer")
class Closer:
    def on_close(self, env):
        print("trusted-marker")

sys.stdout.write("normal-marker\\n")
ctx = initialize_context(transport="process")
ctx.open_session("stdio-closer").close()
ctx.finalize()
"""


class TestTrustedChild:
    def test_child_holds_no_region_that_open_did_not_name(self):
        ctx = initialize_context(transport="process")
        region = ctx.allocate_shared_region(MIB, SharedMode.WHOLE)
        inode = os.fstat(region._fd).st_ino
        first = ctx.open_session("probe")
        second = ctx.open_session("probe")
        ctx.release_region(region)
        try:
            assert _memfd_holds(second._channel._pid, inode) == (0, 0)
            assert _memfd_holds(first._channel._pid, inode) == (0, 0)
        finally:
            first.close()
            second.close()
            ctx.finalize()

    def test_a_relayed_socket_closed_by_its_session_ends_while_a_later_one_is_open(
            self):
        ctx = initialize_context(transport="process")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            first = ctx.open_session("test-holder")
            first.invoke(1, values=(listener.getsockname()[1],))
            peer, _ = listener.accept()
            second = ctx.open_session("probe")
            try:
                first.invoke(2)
                peer.settimeout(1)
                assert peer.recv(1) == b"", "the peer read no EOF"
            finally:
                peer.close()
                first.close()
                second.close()
                ctx.finalize()

    def test_child_holds_no_socket_or_pipe_of_an_earlier_session(self):
        ctx = initialize_context(transport="process")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            first = ctx.open_session("test-holder")
            first.invoke(1, values=(listener.getsockname()[1],))
            listener.accept()[0].close()
            relayed = first._supplicant._sockets[1].raw
            held = {_file_id(relayed.fileno())}
            page = _mapping_inode(first._channel._page)
            second = ctx.open_session("probe")
            try:
                assert held.isdisjoint(_fd_files(second._channel._pid))
                assert page != 0  # a shared mapping; private ones read 0
                assert _memfd_holds(second._channel._pid, page)[1] == 0
            finally:
                first.close()
                second.close()
                ctx.finalize()

    def test_no_semaphore_name_outlives_its_constructor(self):
        ctx = initialize_context(transport="process")
        session = ctx.open_session("probe")
        during = _sem_names()
        session.close()
        ctx.finalize()
        assert during == set() == _sem_names()

    def test_a_child_killed_mid_invoke_is_a_boundary_error_within_a_second(self):
        ctx = initialize_context(transport="process")
        session = ctx.open_session("test-sleeper")
        killed = []

        def kill():
            killed.append(time.monotonic())
            os.kill(session._channel._pid, signal.SIGKILL)

        timer = threading.Timer(0.2, kill)
        timer.start()
        try:
            with pytest.raises(BoundaryError, match="terminated unexpectedly"):
                session.invoke(1, values=(30_000,))
            raised = time.monotonic()
        finally:
            timer.join()
        assert raised - killed[0] < 1.0
        with pytest.raises(BoundaryError, match="terminated unexpectedly"):
            session.close()
        ctx.finalize()
        # the autouse fixture checks that the child was reaped

    def test_each_world_writes_its_output_once(self):
        src = os.path.dirname(os.path.dirname(teebench.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # stdout is a pipe, so both worlds buffer it by blocks
        run = subprocess.run([sys.executable, "-c", _STDIO_RUN], env=env,
                             stdout=subprocess.PIPE, text=True, timeout=30)
        assert run.returncode == 0
        lines = run.stdout.splitlines()
        assert lines.count("normal-marker") == 1, run.stdout
        assert lines.count("trusted-marker") == 1, run.stdout


class TestNormalWorldDeath:
    def test_sigterm_leaves_no_trusted_child_and_no_segment(self):
        before = _sem_names()
        src = os.path.dirname(os.path.dirname(teebench.__file__))
        pythonpath = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        run = subprocess.Popen(
            [sys.executable, "-c", _ORPHANING_RUN], stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=pythonpath))
        child = None
        try:
            child = int(run.stdout.readline())
            run.send_signal(signal.SIGTERM)
            run.wait(timeout=5)
            deadline = time.monotonic() + 5
            while not _gone_or_zombie(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _gone_or_zombie(child), "trusted child outlived its normal world"
            assert _sem_names() - before == set()
        finally:
            if child is not None:
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            run.kill()
            run.wait()
            run.stdout.close()


class TestTrustedProcessOrphaned:
    def test_a_grandchild_exits_within_half_a_second_of_its_normal_world(self):
        # a forked helper opens a session and dies without closing it
        r, w = os.pipe()
        helper = os.fork()
        if helper == 0:
            try:
                os.close(r)
                session = initialize_context(
                    transport="process").open_session("probe")
                os.write(w, b"%d" % session._channel._pid)
            finally:
                os._exit(0)
        os.close(w)
        try:
            grandchild = int(os.read(r, 64))
        finally:
            os.close(r)
            os.waitpid(helper, 0)
        deadline = time.monotonic() + 0.5
        while not _gone_or_zombie(grandchild) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _gone_or_zombie(grandchild), "trusted process outlived its parent"

    def test_a_grandchild_waiting_on_a_relayed_call_exits_when_its_parent_dies(
            self, capfd):
        # the forked helper dies inside its supplicant, so its trusted
        # child is left blocked on the reply to a relayed send
        r, w = os.pipe()
        helper = os.fork()
        if helper == 0:
            try:
                os.close(r)
                session = initialize_context(
                    transport="process").open_session("probe")
                os.write(w, b"%d" % session._channel._pid)
                Supplicant.service = lambda *args: os._exit(0)
                session.invoke(ProbeCommand.SEND_DISCARD, values=(1, KIB))
            finally:
                os._exit(1)
        os.close(w)
        try:
            grandchild = int(os.read(r, 64))
        finally:
            os.close(r)
            _, status = os.waitpid(helper, 0)
        assert os.waitstatus_to_exitcode(status) == 0  # it died serving
        deadline = time.monotonic() + 0.5
        while not _gone_or_zombie(grandchild) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _gone_or_zombie(grandchild), "trusted process outlived its parent"
        assert "relay closed while waiting for a reply" in capfd.readouterr().err

    @pytest.mark.parametrize("cause", ["getppid"])
    def test_a_child_whose_parent_is_gone_before_the_watch_exits_quietly(
            self, monkeypatch, capfd, cause):
        # in the child only: reparented away before its first line
        me, getppid = os.getpid(), os.getppid

        def reparented_getppid():
            return getppid() if os.getpid() == me else 1

        monkeypatch.setattr(os, "getppid", reparented_getppid)
        ctx = initialize_context(transport="process")
        with pytest.raises(BoundaryError, match="terminated unexpectedly"):
            ctx.open_session("probe")
        ctx.finalize()
        assert "Traceback" not in capfd.readouterr().err
        # the autouse fixture checks that the child was reaped


class TestPeerLiveness:
    """Only a reader that sleeps checks that its peer lives: no thread in
    either world watches it, and a pinned relay never sleeps."""

    def test_pinned_relayed_sends_make_no_timed_wait_in_either_world(
            self, monkeypatch):
        waits = mmap.mmap(-1, 16)  # shared with the child: its count and ours
        counts = memoryview(waits).cast("q")
        make_port = context._Port

        def counting_port(page, at, alive):
            port = make_port(page, at, alive)
            take, world = port.wait, 0 if at == HEADER_SIZE else 1  # its reader

            def wait(block=True, timeout=None):
                if block:
                    counts[world] += 1
                return take(block, timeout)

            port.wait = wait
            return port

        monkeypatch.setattr(context, "_Port", counting_port)
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(home)})  # the trusted child inherits it
        try:
            ctx = initialize_context(transport="process")
            session = ctx.open_session("probe")
            counts[0] = counts[1] = 0
            result = session.invoke(ProbeCommand.SEND_DISCARD, values=(1000, KIB))
            during = counts.tolist()
            session.close()
            ctx.finalize()
        finally:
            os.sched_setaffinity(0, home)
            counts.release()
            waits.close()
        assert result.values == (1000 * KIB,)
        assert during == [0, 0]  # normal world, trusted world

    def test_an_idle_trusted_child_runs_one_thread_and_barely_wakes(self):
        ctx = initialize_context(transport="process")
        session = ctx.open_session("probe")
        pid = session._channel._pid
        try:
            time.sleep(0.1)  # past its yields, into its periodic sleep
            before = _cpu_seconds(pid)
            time.sleep(0.5)
            used = _cpu_seconds(pid) - before
            tasks = os.listdir(f"/proc/{pid}/task")
        finally:
            session.close()
            ctx.finalize()
        assert len(tasks) == 1
        assert used < 0.02

    def test_opening_a_process_session_starts_no_thread(self):
        # in a forked helper, which starts with one thread
        r, w = os.pipe()
        helper = os.fork()
        if helper == 0:
            try:
                os.close(r)
                ctx = initialize_context(transport="process")
                session = ctx.open_session("probe")
                os.write(w, b"%d" % len(os.listdir("/proc/self/task")))
                session.close()
                ctx.finalize()
            finally:
                os._exit(0)
        os.close(w)
        try:
            tasks = os.read(r, 64)
        finally:
            os.close(r)
            os.waitpid(helper, 0)
        assert tasks == b"1"


class TestPortHandoff:
    """A read takes a posted frame at once; else it yields its core up to
    ``_YIELDS`` times, taking a frame posted meanwhile, and only then
    sleeps on the semaphore, asking after each period whether the writer
    lives."""

    @pytest.fixture
    def port(self):
        page = mmap.mmap(-1, HEADER_SIZE)
        yield context._Port(page, 0, lambda: True)
        page.close()

    @pytest.fixture
    def yields(self, monkeypatch):
        counted = []
        monkeypatch.setattr(context, "_yield", lambda: counted.append(None))
        return counted

    def test_a_posted_frame_is_taken_without_a_yield(self, port, yields):
        context.write_message(port, RETURN, 1, 2, 3, 4)
        assert context.read_message(port) == (RETURN, 1, 2, 3, 4)
        assert yields == []

    def test_with_no_post_the_read_yields_the_bound_then_sleeps(self, port,
                                                                yields):
        asleep, take = threading.Event(), port.wait

        def wait(block=True, timeout=None):
            if block:
                asleep.set()
            return take(block, timeout)

        port.wait = wait
        writer = threading.Thread(target=lambda: (
            asleep.wait(10), context.write_message(port, RETURN, 0, 0, 7, 9)))
        writer.start()
        assert context.read_message(port) == (RETURN, 0, 0, 7, 9)
        writer.join(10)
        assert not writer.is_alive()
        assert asleep.is_set()
        assert len(yields) == context._YIELDS

    def test_a_writer_found_dead_ends_this_read_and_the_next(self, port,
                                                             yields):
        asked = []
        port.alive = lambda: asked.append(None)  # None: the writer is dead
        assert context.read_message(port) is None
        assert context.read_message(port) is None
        assert len(asked) == 2  # once per read, after its first period
        assert len(yields) == 2 * context._YIELDS

    def test_a_frame_posted_as_its_writer_dies_is_read_and_the_next_read_is_none(
            self, port, yields):
        posted = []

        def post_then_die():  # the frame lands after the read's sleep timed out
            if not posted:
                posted.append(None)
                context.write_message(port, RETURN, 0, 0, 5, 6)
            return False

        port.alive = post_then_die
        assert context.read_message(port) == (RETURN, 0, 0, 5, 6)
        assert context.read_message(port) is None

    def test_a_frame_a_dead_child_posted_is_read_and_the_next_read_is_none(
            self, port):
        pid = os.fork()
        if pid == 0:
            try:
                context.write_message(port, RETURN, 0, 0, 7, 8)
            finally:
                os._exit(0)
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, unreaped
            port.alive = context._child_lives(pid)
            assert context.read_message(port) == (RETURN, 0, 0, 7, 8)
            assert context.read_message(port) is None
        finally:
            os.waitpid(pid, 0)


def _relay_args(supplicant, command, handle, args):
    """Service ``command`` with its packed arguments staged, as the trusted
    side stages them, at offset 0 of a region shared for the one call."""
    region = SharedRegion(4 * KIB, SharedMode.WHOLE)
    try:
        region.window_write(0, args)
        return supplicant.service(
            Message(command, region.region_id, 0, len(args), handle),
            {region.region_id: region})
    finally:
        region.release()


class TestSupplicantIoctl:
    def _scratch_region(self, ctx):
        return ctx.allocate_shared_region(4 * KIB, SharedMode.WHOLE)

    def test_set_buf_sizes_applies_to_the_real_socket(self, tcp_server):
        supplicant = Supplicant()
        from teebench.boundary.protocol import pack_sock_open_body

        handle = _relay_args(
            supplicant, Command.SOCK_OPEN, 0,
            pack_sock_open_body(Protocol.TCP, "127.0.0.1", tcp_server.port))
        assert handle > 0
        status = _relay_args(
            supplicant, Command.SOCK_IOCTL, handle,
            pack_ioctl_body(IoctlCode.SET_BUF_SIZES, (64 * KIB, 32 * KIB)))
        assert status == 0
        sock = supplicant._sockets[handle].raw
        # the kernel at least doubles the requested value for bookkeeping
        assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) >= 64 * KIB
        assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) >= 32 * KIB
        supplicant.release()

    def test_set_peer_on_tcp_is_not_supported(self, tcp_server):
        supplicant = Supplicant()
        from teebench.boundary.protocol import pack_sock_open_body

        handle = _relay_args(
            supplicant, Command.SOCK_OPEN, 0,
            pack_sock_open_body(Protocol.TCP, "127.0.0.1", tcp_server.port))
        status = _relay_args(
            supplicant, Command.SOCK_IOCTL, handle,
            pack_ioctl_body(IoctlCode.SET_PEER, ("127.0.0.1", 1)))
        import errno as errno_mod

        assert status == -errno_mod.EOPNOTSUPP
        supplicant.release()

    def test_refused_ioctl_is_the_last_errno_also_after_close(self, tcp_server):
        from teebench.boundary.protocol import pack_sock_open_body

        supplicant = Supplicant()
        handle = _relay_args(
            supplicant, Command.SOCK_OPEN, 0,
            pack_sock_open_body(Protocol.TCP, "127.0.0.1", tcp_server.port))
        _relay_args(
            supplicant, Command.SOCK_IOCTL, handle,
            pack_ioctl_body(IoctlCode.SET_PEER, ("127.0.0.1", 1)))
        last_error = Message(Command.SOCK_ERROR, 0, 0, 0, handle)
        assert supplicant.service(last_error, {}) == errno.EOPNOTSUPP
        assert supplicant.service(
            Message(Command.SOCK_CLOSE, 0, 0, 0, handle), {}) == 0
        assert supplicant.service(last_error, {}) == errno.EOPNOTSUPP

    def test_unknown_protocol_code_is_einval(self):
        supplicant = Supplicant()
        args = struct.pack("<BH", 7, 9) + b"127.0.0.1"
        status = _relay_args(supplicant, Command.SOCK_OPEN, 0, args)
        supplicant.release()
        assert status == -errno.EINVAL

    def test_unknown_handle_is_ebadf(self):
        supplicant = Supplicant()
        status = supplicant.service(
            Message(Command.SOCK_CLOSE, 0, 0, 0, 42), {})
        import errno as errno_mod

        assert status == -errno_mod.EBADF

    def test_an_unknown_code_is_einval_on_the_sink_as_on_a_live_socket(
            self, tcp_server, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-unknown-ioctl")
        result = session.invoke(1, values=(tcp_server.port,))
        session.close()
        ctx.finalize()
        assert result.status == TeeResult.SUCCESS
        assert result.values == (errno.EINVAL,) * 4

    def test_discard_handle_swallows_sends(self):
        supplicant = Supplicant()
        ctx = initialize_context(transport="inline")
        region = self._scratch_region(ctx)
        region.window_write(0, b"z" * 256)
        status = supplicant.service(
            Message(Command.SOCK_SEND, region.region_id, 0, 256, DISCARD_HANDLE),
            {region.region_id: region},
        )
        assert status == 256
        ctx.release_region(region)
        ctx.finalize()


class TestUnresolvableHost:
    """A host that does not resolve fails as EHOSTUNREACH. The resolver's
    own codes are negative, so negated they read as a handle (an open)
    or as success (SET_PEER)."""

    @pytest.mark.parametrize("protocol", [Protocol.TCP, Protocol.UDP])
    def test_sock_open_is_ehostunreach_and_adds_no_handle(self, unresolvable,
                                                          protocol):
        from teebench.boundary.protocol import pack_sock_open_body

        supplicant = Supplicant()
        status = _relay_args(supplicant, Command.SOCK_OPEN, 0,
                             pack_sock_open_body(protocol, unresolvable, 9))
        assert status == -errno.EHOSTUNREACH
        assert list(supplicant._sockets) == [DISCARD_HANDLE]
        supplicant.release()

    def test_set_peer_is_ehostunreach_and_the_last_errno(self, unresolvable,
                                                         udp_server):
        from teebench.boundary.protocol import pack_sock_open_body

        supplicant = Supplicant()
        handle = _relay_args(
            supplicant, Command.SOCK_OPEN, 0,
            pack_sock_open_body(Protocol.UDP, "127.0.0.1", udp_server.port))
        status = _relay_args(
            supplicant, Command.SOCK_IOCTL, handle,
            pack_ioctl_body(IoctlCode.SET_PEER, (unresolvable, 9)))
        assert status == -errno.EHOSTUNREACH
        assert supplicant.service(
            Message(Command.SOCK_ERROR, 0, 0, 0, handle), {}) == errno.EHOSTUNREACH
        supplicant.release()

    @pytest.mark.parametrize("execution, transport", [
        (Execution.DIRECT, None), (Execution.BOUNDARY, "inline"),
        (Execution.BOUNDARY, "process")])
    def test_a_client_run_reports_the_connect_failure(self, unresolvable,
                                                      execution, transport):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=KIB,
                        host=unresolvable, port=9, execution=execution)
        metrics = run_client(cfg, transport=transport).transfer
        assert metrics.error == f"connect failed: errno {errno.EHOSTUNREACH}"
        assert metrics.transmit_calls == 0


class TestRelayErrorPrecedence:
    """Which status wins when one relayed call is wrong in more than one
    way, and what the handle's last errno is afterwards."""

    @pytest.fixture
    def live(self, tcp_server):
        from teebench.boundary.protocol import pack_sock_open_body

        supplicant = Supplicant()
        handle = _relay_args(
            supplicant, Command.SOCK_OPEN, 0,
            pack_sock_open_body(Protocol.TCP, "127.0.0.1", tcp_server.port))
        assert handle > 0
        region = SharedRegion(4 * KIB, SharedMode.WHOLE)
        yield supplicant, handle, region
        supplicant.release()
        region.release()

    def test_send_on_an_unknown_handle_naming_an_unknown_region_is_ebadf(self):
        status = Supplicant().service(
            Message(Command.SOCK_SEND, 999, 0, 16, 42), {})
        assert status == -errno.EBADF

    def test_discard_send_naming_an_unknown_region_is_efault(self):
        status = Supplicant().service(
            Message(Command.SOCK_SEND, 999, 0, 16, DISCARD_HANDLE), {})
        assert status == -errno.EFAULT

    def test_live_send_past_the_window_is_efault_and_records_no_errno(self, live):
        supplicant, handle, region = live
        regions = {region.region_id: region}
        past_end = Message(Command.SOCK_SEND, region.region_id,
                           4 * KIB - 8, 16, handle)
        assert supplicant.service(past_end, regions) == -errno.EFAULT
        unknown = Message(Command.SOCK_SEND, region.region_id + 1, 0, 16, handle)
        assert supplicant.service(unknown, regions) == -errno.EFAULT
        last_error = Message(Command.SOCK_ERROR, 0, 0, 0, handle)
        assert supplicant.service(last_error, regions) == 0

    def test_socket_error_after_a_fault_is_still_the_last_os_errno(self, live):
        supplicant, handle, region = live
        regions = {region.region_id: region}
        args = pack_ioctl_body(IoctlCode.SET_PEER, ("127.0.0.1", 1))
        region.window_write(0, args)
        refused = Message(Command.SOCK_IOCTL, region.region_id, 0, len(args),
                          handle)
        assert supplicant.service(refused, regions) == -errno.EOPNOTSUPP
        past_end = Message(Command.SOCK_SEND, region.region_id,
                           4 * KIB - 8, 16, handle)
        assert supplicant.service(past_end, regions) == -errno.EFAULT
        last_error = Message(Command.SOCK_ERROR, 0, 0, 0, handle)
        assert supplicant.service(last_error, regions) == errno.EOPNOTSUPP

    def test_discard_recv_the_session_does_not_share_is_efault(self):
        supplicant = Supplicant()
        region = SharedRegion(4 * KIB, SharedMode.WHOLE)
        try:
            unknown = Message(Command.SOCK_RECV, 999, 0, 16, DISCARD_HANDLE)
            assert supplicant.service(unknown, {}) == -errno.EFAULT
            past_end = Message(Command.SOCK_RECV, region.region_id,
                               4 * KIB - 8, 16, DISCARD_HANDLE)
            assert supplicant.service(
                past_end, {region.region_id: region}) == -errno.EFAULT
        finally:
            region.release()

    def test_discard_ioctl_whose_arguments_do_not_decode_is_einval(self):
        status = _relay_args(Supplicant(), Command.SOCK_IOCTL, DISCARD_HANDLE,
                             b"\x01")
        assert status == -errno.EINVAL

    @pytest.mark.parametrize("command", [Command.SOCK_OPEN, Command.SOCK_IOCTL])
    def test_arguments_in_a_region_the_session_does_not_share_are_efault(
            self, live, command):
        supplicant, handle, region = live
        args = pack_ioctl_body(IoctlCode.SET_BUF_SIZES, (KIB, KIB))
        region.window_write(0, args)
        regions = {region.region_id: region}
        for region_id, offset in ((region.region_id + 1, 0),
                                  (region.region_id, 4 * KIB - 8)):
            msg = Message(command, region_id, offset, len(args), handle)
            assert supplicant.service(msg, regions) == -errno.EFAULT
        last_error = Message(Command.SOCK_ERROR, 0, 0, 0, handle)
        assert supplicant.service(last_error, regions) == 0

    def test_an_unknown_command_is_einval_on_the_sink_and_a_live_handle(self, live):
        supplicant, handle, _ = live
        for target in (DISCARD_HANDLE, handle):
            assert supplicant.service(Message(99, 0, 0, 0, target), {}) == -errno.EINVAL

    def test_closing_the_sink_answers_0_and_leaves_it_open(self):
        supplicant = Supplicant()
        region = SharedRegion(4 * KIB, SharedMode.WHOLE)
        try:
            close = Message(Command.SOCK_CLOSE, 0, 0, 0, DISCARD_HANDLE)
            assert supplicant.service(close, {}) == 0
            send = Message(Command.SOCK_SEND, region.region_id, 0, 16, DISCARD_HANDLE)
            assert supplicant.service(send, {region.region_id: region}) == 16
        finally:
            region.release()


class TestFaultingRecv:
    """A relayed recv whose span leaves the window faults before it
    touches the socket, so the waiting bytes stay for the next recv."""

    @pytest.fixture
    def fed(self):
        from teebench.boundary.protocol import pack_sock_open_body

        listener = socket.create_server(("127.0.0.1", 0))
        supplicant = Supplicant()
        handle = _relay_args(
            supplicant, Command.SOCK_OPEN, 0,
            pack_sock_open_body(Protocol.TCP, "127.0.0.1",
                                listener.getsockname()[1]))
        assert handle > 0
        peer, _ = listener.accept()
        payload = bytes(range(100))
        peer.sendall(payload)
        peer.shutdown(socket.SHUT_WR)  # a consumed payload reads as EOF
        region = SharedRegion(4 * KIB, SharedMode.WHOLE)
        yield supplicant, handle, region, payload
        supplicant.release()
        region.release()
        peer.close()
        listener.close()

    @pytest.mark.parametrize("offset, length", [(4 * KIB - 6, 100), (0, 2**40)],
                             ids=["past-the-window", "oversized"])
    def test_faulting_recv_is_efault_and_consumes_nothing(self, fed, offset,
                                                          length):
        supplicant, handle, region, payload = fed
        regions = {region.region_id: region}
        bad = Message(Command.SOCK_RECV, region.region_id, offset, length, handle)
        assert supplicant.service(bad, regions) == -errno.EFAULT
        received = b""
        while len(received) < len(payload):
            got = supplicant.service(
                Message(Command.SOCK_RECV, region.region_id, len(received),
                        len(payload) - len(received), handle), regions)
            assert got > 0
            received = region.window_read(0, len(received) + got)
        assert received == payload
        last_error = Message(Command.SOCK_ERROR, 0, 0, 0, handle)
        assert supplicant.service(last_error, regions) == 0


class TestConcurrency:
    def test_sessions_in_parallel_threads_keep_exact_stats(self, transport):
        ctx = initialize_context(transport=transport)
        counts = (40, 60)
        errors = []

        def work(count):
            try:
                session = ctx.open_session("probe")
                session.invoke(ProbeCommand.SEND_DISCARD, values=(count, 64))
                session.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(c,)) for c in counts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected = sum(2 * (c + 3) for c in counts)
        assert ctx.stats.crossings == expected
        assert ctx.stats.rpc_count == sum(counts)
        ctx.finalize()

    def test_stats_read_during_parallel_sessions_never_go_back(self):
        # more sessions than cores, a tiny switch interval and a reader
        # polling throughout: a lost or doubled fold breaks the totals,
        # and no read may see fewer crossings than an earlier one
        ctx = initialize_context(transport="inline")
        counts = (30, 40, 50, 60)
        done = threading.Event()
        seen, errors = [], []

        def work(count):
            try:
                for _ in range(3):
                    session = ctx.open_session("probe")
                    session.invoke(ProbeCommand.SEND_DISCARD, values=(count, 16))
                    session.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def read():
            while not done.is_set():
                seen.append(ctx.stats.crossings)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            workers = [threading.Thread(target=work, args=(c,)) for c in counts]
            reader.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30)
            done.set()
            reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not reader.is_alive() and not any(t.is_alive() for t in workers)
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        stats = ctx.stats
        assert stats.crossings == 3 * sum(2 * (c + 3) for c in counts)
        assert stats.rpc_count == 3 * sum(counts)
        assert stats.bytes_copied == 3 * sum(counts) * 16
        ctx.finalize()

    def test_one_invocation_in_flight_per_session(self, transport):
        ctx = initialize_context(transport=transport)
        session = ctx.open_session("test-sleeper")
        started = threading.Event()
        outcome = {}

        def slow():
            started.set()
            outcome["result"] = session.invoke(1, values=(600,))

        worker = threading.Thread(target=slow)
        worker.start()
        started.wait()
        time.sleep(0.1)  # let the slow invoke actually enter
        with pytest.raises(SessionStateError):
            session.invoke(1, values=(1,))
        worker.join()
        assert outcome["result"].status == TeeResult.SUCCESS
        session.close()
        ctx.finalize()


class TestDataIntegrity:
    @pytest.mark.parametrize("mode", list(SharedMode))
    def test_server_sees_exactly_the_trusted_side_bytes(self, tcp_server, mode):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=256 * KIB,
                        chunk_size=32 * KIB, port=tcp_server.port,
                        execution=Execution.BOUNDARY, shared_mode=mode,
                        rng_seed=99)
        result = run_client(cfg)
        flows = tcp_server.wait_for_records(len(tcp_server.collected()) or 1)
        record = flows[-1]
        assert record.bytes_received == result.transfer.bytes_transferred
        assert record.payload_sha256 == result.transfer.payload_sha256
        assert result.boundary_stats.rpc_count >= 8  # one relay RPC per send

    def test_run_measurement_through_boundary_counts_rpcs(self, tcp_server):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=10 * 128 * KIB,
                        port=tcp_server.port, execution=Execution.BOUNDARY)
        result = run_client(cfg)
        assert result.transfer.transmit_calls == 10
        assert result.boundary_stats.rpc_count >= 10
        assert result.boundary_stats.crossings % 2 == 0
