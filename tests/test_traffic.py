import math
import socket
import time

import pytest

from teebench import clock
from teebench.core import Execution, Mode, Protocol, RunConfig, derive_throughput
from teebench.traffic import (
    DirectEnv,
    batch_factor,
    fill_dummy_buffer,
    run_measurement,
)

KIB = 1024


class TestDummyBuffer:
    def test_same_seed_same_bytes(self):
        assert fill_dummy_buffer(16, 42) == fill_dummy_buffer(16, 42)

    def test_different_seed_different_bytes(self):
        assert fill_dummy_buffer(16, 42) != fill_dummy_buffer(16, 43)

    def test_requested_size(self):
        assert len(fill_dummy_buffer(128 * KIB, 0)) == 128 * KIB

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            fill_dummy_buffer(0, 1)


class _LateFirstSocket:
    """Accepts every send whole; the first one takes ``delay`` seconds."""

    def __init__(self, delay: float):
        self.delay = delay

    def send(self, data) -> int:
        time.sleep(self.delay)
        self.delay = 0
        return len(data)

    def ioctl(self, code, arg) -> None:
        pass

    def close(self) -> None:
        pass


class _ClockedEnv(DirectEnv):
    """Hands out one socket and keeps its first clock reading, which is
    the run's t0."""

    def __init__(self, sock):
        self.sock = sock
        self.t0 = None

    def monotonic(self) -> float:
        now = super().monotonic()
        if self.t0 is None:
            self.t0 = now
        return now

    def open_socket(self, host, port, protocol):
        return self.sock


class TestPacing:
    # 1 KiB at 819.2 kbit/s: one chunk every 10 ms, so no batching
    GAP = 0.01

    def test_a_late_send_does_not_shift_the_schedule(self, monkeypatch):
        deadlines = []
        wait_until = clock.wait_until

        def record(deadline):
            deadlines.append(deadline)
            return wait_until(deadline)

        monkeypatch.setattr(clock, "wait_until", record)
        cfg = RunConfig(mode=Mode.CONSTANT_RATE, bitrate=KIB * 8 / self.GAP,
                        duration=10 * self.GAP, chunk_size=KIB, port=1)
        env = _ClockedEnv(_LateFirstSocket(3.5 * self.GAP))
        metrics = run_measurement(cfg, env)
        assert metrics.error is None and metrics.transmit_calls == 10
        # one wait per chunk, then the end of the schedule, all on t0 + g*gap
        assert len(deadlines) >= 10
        assert deadlines == pytest.approx(
            [env.t0 + g * self.GAP for g in range(len(deadlines))], abs=1e-9)


class TestBatchFactor:
    def test_above_one_millisecond_no_batching(self):
        # 128 KiB at 512 Mbit/s -> 2.048 ms per chunk
        assert batch_factor(512e6, 128 * KIB) == 1

    def test_below_one_millisecond_batches(self):
        # 1 KiB at 100 Mbit/s -> 81.92 us per chunk -> ceil(1000/81.92) = 13
        assert batch_factor(100e6, KIB) == 13

    def test_boundary_value(self):
        # exactly 1 ms per chunk stays unbatched
        bitrate = KIB * 8 / 0.001
        assert batch_factor(bitrate, KIB) == 1


class TestFixedBytes:
    def test_exact_division_gives_exact_call_count(self, tcp_server):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=1310720,
                        port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.error is None
        assert metrics.transmit_calls == 10
        assert metrics.bytes_transferred == 1310720
        record = tcp_server.wait_for_records(1)[0]
        assert record.bytes_received == 1310720

    def test_remainder_goes_out_in_a_short_final_chunk(self, tcp_server):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=1310721,
                        port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.bytes_transferred == 1310721
        assert metrics.transmit_calls == 11
        assert metrics.bytes_transferred <= metrics.transmit_calls * cfg.chunk_size


class TestFixedDuration:
    def test_runtime_within_one_chunk_of_the_target(self, tcp_server):
        duration = 0.5
        cfg = RunConfig(mode=Mode.FIXED_DURATION, duration=duration,
                        port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.error is None
        assert duration <= metrics.total_runtime <= duration + 0.25
        assert metrics.bytes_transferred <= metrics.transmit_calls * cfg.chunk_size

    def test_time_in_transmit_within_total_runtime(self, tcp_server):
        cfg = RunConfig(mode=Mode.FIXED_DURATION, duration=0.3,
                        port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.transmit_calls > 0
        assert 0 < metrics.time_in_transmit <= metrics.total_runtime


class TestConstantRate:
    def test_ten_megabit_for_one_second(self, tcp_server):
        # interval = 0.1048576 s -> floor(1 / interval) = 9 chunks
        cfg = RunConfig(mode=Mode.CONSTANT_RATE, bitrate=1e7, duration=1.0,
                        port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.error is None
        assert metrics.transmit_calls == 9
        assert not metrics.underrun
        achieved = derive_throughput(metrics)
        assert achieved == pytest.approx(1e7, rel=0.05)

    def test_default_ladder_interval_count(self, tcp_server):
        # 10 s at 10 Mbit/s would send floor(10/0.1048576) = 95 chunks; use
        # a 2 s desk-scale slice of the same schedule
        cfg = RunConfig(mode=Mode.CONSTANT_RATE, bitrate=1e7, duration=2.0,
                        port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.transmit_calls == math.floor(2.0 / 0.1048576)

    def test_rate_beyond_capacity_sets_the_underrun_flag(self, tcp_server):
        cfg = RunConfig(mode=Mode.CONSTANT_RATE, bitrate=100e9, duration=0.3,
                        chunk_size=64 * KIB, port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.underrun
        assert derive_throughput(metrics) < 100e9 * 0.95

    def test_batching_factor_recorded(self, tcp_server):
        cfg = RunConfig(mode=Mode.CONSTANT_RATE, bitrate=100e6, duration=0.2,
                        chunk_size=KIB, port=tcp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.pacing_batch == 13


class TestPayloadStream:
    def test_identical_config_and_seed_is_byte_identical(self, tcp_server):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=256 * KIB,
                        chunk_size=32 * KIB, port=tcp_server.port, rng_seed=5)
        first = run_measurement(cfg)
        second = run_measurement(cfg)
        assert first.payload_sha256 == second.payload_sha256
        records = tcp_server.wait_for_records(2)
        assert {r.payload_sha256 for r in records} == {first.payload_sha256}

    def test_udp_loopback_conserves_bytes(self, udp_server):
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=64 * KIB,
                        chunk_size=8 * KIB, protocol=Protocol.UDP,
                        port=udp_server.port)
        metrics = run_measurement(cfg)
        assert metrics.bytes_transferred == 64 * KIB
        record = udp_server.wait_for_records(1)[0]
        assert record.bytes_received == 64 * KIB
        assert record.payload_sha256 == metrics.payload_sha256


class TestFailureModes:
    def test_connection_refused_yields_partial_metrics_with_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=KIB, port=dead_port)
        metrics = run_measurement(cfg)
        assert metrics.error is not None and "111" in metrics.error
        assert metrics.transmit_calls == 0

    @pytest.mark.parametrize("fail_at, error", [
        ("connect", "connect failed: errno 111"),
        ("ioctl", "socket buffer setup failed: errno 22"),
        ("ioctl and close", "socket buffer setup failed: errno 22"),
    ])
    def test_setup_failures_share_one_exit(self, fail_at, error):
        class Sock:
            closed = False

            def ioctl(self, code, arg):
                raise OSError(22, "refused")

            def close(self):
                self.closed = True
                if fail_at == "ioctl and close":
                    raise OSError(9, "bad close")

        class Env(DirectEnv):
            held = 0
            sock = Sock()

            def alloc(self, nbytes):
                self.held += nbytes

            def free(self, nbytes):
                self.held -= nbytes

            def open_socket(self, host, port, protocol):
                if fail_at == "connect":
                    raise OSError(111, "refused")
                return self.sock

        env = Env()
        metrics = run_measurement(
            RunConfig(mode=Mode.FIXED_BYTES, total_bytes=KIB, port=1), env)
        assert metrics.error == error
        assert metrics.transmit_calls == 0 and metrics.bytes_transferred == 0
        assert env.held == 0
        assert env.sock.closed is (fail_at != "connect")

    def test_mid_run_reset_is_partial_not_fatal(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        import threading

        def accept_then_slam():
            conn, _ = listener.accept()
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
            import time

            time.sleep(0.1)
            conn.close()

        t = threading.Thread(target=accept_then_slam, daemon=True)
        t.start()
        cfg = RunConfig(mode=Mode.FIXED_DURATION, duration=2.0,
                        chunk_size=64 * KIB, port=listener.getsockname()[1])
        metrics = run_measurement(cfg)
        t.join()
        listener.close()
        assert metrics.error is not None
        assert metrics.total_runtime < 2.0  # stopped at the reset

    def test_a_send_of_zero_bytes_ends_the_run(self):
        class Stalled(_LateFirstSocket):
            calls = 0

            def send(self, data):
                self.calls += 1
                if self.calls > 1:  # a second call would loop for ever
                    raise OSError(5, "sent again after accepting nothing")
                return 0

        sock = Stalled(0)
        metrics = run_measurement(
            RunConfig(mode=Mode.FIXED_BYTES, total_bytes=KIB, port=1),
            _ClockedEnv(sock))
        assert metrics.error == "transport accepted zero bytes"
        assert sock.calls == metrics.transmit_calls == 1
        assert metrics.bytes_transferred == 0

    def test_a_failing_close_still_yields_the_metrics(self):
        class BadClose(_LateFirstSocket):
            def close(self):
                raise OSError(9, "bad close")

        class Env(_ClockedEnv):
            freed = 0

            def free(self, nbytes):
                self.freed += nbytes

        env = Env(BadClose(0))
        metrics = run_measurement(
            RunConfig(mode=Mode.FIXED_BYTES, total_bytes=4 * KIB,
                      chunk_size=KIB, port=1), env)
        assert metrics.error is None
        assert metrics.transmit_calls == 4
        assert metrics.bytes_transferred == 4 * KIB
        assert env.freed == KIB


def test_direct_env_round_trips_through_a_socketpair():
    env = DirectEnv()
    env.alloc(123)   # accounting is a no-op but must exist
    env.free(123)
    assert env.monotonic() > 0
