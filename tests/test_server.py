import socket
import statistics
import threading
import time

import pytest

from teebench.core import Protocol
from teebench.server import (
    RTT_SAMPLE_INTERVAL, BenchmarkServer, ServerConfig, _Flow, probe_transport,
)


def blast(port, data, chunk=65536):
    sock = socket.create_connection(("127.0.0.1", port))
    view = memoryview(data)
    while view:
        sent = sock.send(view[:chunk])
        view = view[sent:]
    sock.close()


class TestTcpFlows:
    def test_byte_count_matches_what_was_sent(self, tcp_server):
        blast(tcp_server.port, b"q" * 1310720)
        record = tcp_server.wait_for_records(1)[0]
        assert record.bytes_received == 1310720
        assert record.receive_calls >= 10
        assert record.protocol is Protocol.TCP
        assert record.error is None

    def test_zero_byte_connection(self, tcp_server):
        sock = socket.create_connection(("127.0.0.1", tcp_server.port))
        sock.close()
        record = tcp_server.wait_for_records(1)[0]
        assert record.bytes_received == 0
        assert record.receive_calls == 0
        assert record.runtime == 0.0

    def test_sequential_connections_emit_in_completion_order(self, tcp_server):
        blast(tcp_server.port, b"a" * 1000)
        tcp_server.wait_for_records(1)
        blast(tcp_server.port, b"b" * 2000)
        records = tcp_server.wait_for_records(2)
        assert [r.bytes_received for r in records] == [1000, 2000]

    def test_transport_introspection_on_loopback(self, tcp_server):
        blast(tcp_server.port, b"m" * 500000)
        record = tcp_server.wait_for_records(1)[0]
        # RFC 879 floor for any real TCP segment size
        assert record.max_segment_size is not None
        assert record.max_segment_size >= 536
        assert record.smoothed_rtt is None or 0 <= record.smoothed_rtt < 1.0

    def test_rtt_sampled_roughly_once_per_interval(self, monkeypatch):
        monkeypatch.setattr("teebench.server.RTT_SAMPLE_INTERVAL", 0.15)
        cfg = ServerConfig(bind="127.0.0.1", port=0)
        with BenchmarkServer(cfg) as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            for _ in range(6):
                sock.send(b"t" * 1024)
                time.sleep(0.1)
            sock.close()
            record = server.wait_for_records(1)[0]
            assert len(record.rtt_samples) >= 3

    def test_default_rtt_cadence_is_one_second(self):
        assert RTT_SAMPLE_INTERVAL == 1.0

    def test_reset_recorded_in_that_flows_metrics(self, tcp_server):
        sock = socket.create_connection(("127.0.0.1", tcp_server.port))
        sock.send(b"r" * 4096)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
        sock.close()  # RST instead of FIN
        record = tcp_server.wait_for_records(1)[0]
        assert record.error == "connection reset"


class TestUdpFlows:
    def send_burst(self, port, count, size, sock=None):
        own = sock is None
        sock = sock or socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for _ in range(count):
            sock.sendto(b"u" * size, ("127.0.0.1", port))
        if own:
            return sock
        return sock

    def test_no_transport_introspection_for_udp(self, udp_server):
        sock = self.send_burst(udp_server.port, 5, 1024)
        record = udp_server.wait_for_records(1)[0]
        sock.close()
        assert record.smoothed_rtt is None
        assert record.max_segment_size is None
        assert record.bytes_received == 5 * 1024
        assert record.receive_calls == 5

    def test_flow_identity_is_source_address_and_port(self, udp_server):
        a = self.send_burst(udp_server.port, 3, 100)
        b = self.send_burst(udp_server.port, 4, 100)
        records = udp_server.wait_for_records(2)
        a.close()
        b.close()
        assert {r.bytes_received for r in records} == {300, 400}
        assert len({r.peer for r in records}) == 2

    def test_idle_timeout_splits_one_peer_into_two_flows(self, udp_server):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.send_burst(udp_server.port, 2, 64, sock)
        time.sleep(0.8)  # idle timeout in the fixture is 0.3 s
        self.send_burst(udp_server.port, 3, 64, sock)
        records = udp_server.wait_for_records(2)
        sock.close()
        assert [r.receive_calls for r in records] == [2, 3]
        assert records[0].peer == records[1].peer


class TestProbeTransport:
    def test_udp_socket_has_no_tcp_metrics(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        info = probe_transport(sock)
        sock.close()
        assert info.smoothed_rtt is None
        assert info.max_segment_size is None

    def test_closed_socket_is_unavailable(self, tcp_server):
        sock = socket.create_connection(("127.0.0.1", tcp_server.port))
        sock.close()
        info = probe_transport(sock)
        assert info.smoothed_rtt is None
        assert info.max_segment_size is None


def test_bind_failure_raises():
    with BenchmarkServer(ServerConfig(bind="127.0.0.1", port=0)) as server:
        with pytest.raises(OSError):
            BenchmarkServer(ServerConfig(bind="127.0.0.1",
                                         port=server.port)).start()



class TestStop:
    @pytest.mark.parametrize("protocol", [Protocol.TCP, Protocol.UDP])
    def test_stop_returns_without_waiting_out_a_poll(self, protocol):
        cfg = ServerConfig(bind="127.0.0.1", port=0, protocol=protocol)
        took = []
        for _ in range(5):
            sink = BenchmarkServer(cfg).start()
            time.sleep(0.05)
            began = time.monotonic()
            sink.stop()
            took.append(time.monotonic() - began)
            sink.stop()  # a second stop does nothing
        assert statistics.median(took) < 0.02, took

    def test_stop_still_records_the_datagrams_already_queued(self):
        cfg = ServerConfig(bind="127.0.0.1", port=0, protocol=Protocol.UDP)
        sink = BenchmarkServer(cfg).start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for _ in range(3):
            sock.sendto(b"d" * 100, ("127.0.0.1", sink.port))
        sock.close()
        sink.stop()
        assert [r.bytes_received for r in sink.collected()] == [300]

    def test_stop_ends_while_a_client_keeps_sending(self, monkeypatch):
        # A reader slower than its sender, so the queue never empties.
        add = _Flow.add

        def slow_add(flow, data, now):
            time.sleep(0.001)
            add(flow, data, now)

        monkeypatch.setattr(_Flow, "add", slow_add)
        cfg = ServerConfig(bind="127.0.0.1", port=0, protocol=Protocol.UDP,
                           socket_buffer=4096)
        sink = BenchmarkServer(cfg).start()
        sending = threading.Event()
        sending.set()

        def send():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                while sending.is_set():
                    sock.sendto(b"d" * 100, ("127.0.0.1", sink.port))

        sender = threading.Thread(target=send)
        sender.start()
        try:
            time.sleep(0.1)
            began = time.monotonic()
            sink.stop()
            took = time.monotonic() - began
            records = sink.collected()
        finally:
            sending.clear()
            sender.join()
        assert took < 1.0, took
        assert len(records) == 1 and records[0].bytes_received > 0
