"""The sink's record path: flow accounting, the record list and its
waiters, worker bookkeeping and the CLI server loop that waits on it."""

import hashlib
import json
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from teebench.server import TCP_READ_SIZE, BenchmarkServer, ServerConfig

SRC = Path(__file__).resolve().parent.parent / "src"
KIB = 1024


def send_tcp(port, data):
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(data)


def send_in_chunks(port, data, chunk=KIB):
    with socket.create_connection(("127.0.0.1", port)) as sock:
        for at in range(0, len(data), chunk):
            sock.sendall(data[at:at + chunk])


def test_udp_runtime_spans_first_to_last_datagram(udp_server):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(b"u" * 64, ("127.0.0.1", udp_server.port))
        time.sleep(0.15)  # under the fixture's 0.3 s idle timeout
        sock.sendto(b"u" * 64, ("127.0.0.1", udp_server.port))
        record = udp_server.wait_for_records(1)[0]
    assert record.receive_calls == 2
    assert 0.1 <= record.runtime < 0.3


def test_wait_for_records_times_out_naming_both_counts(tcp_server):
    send_tcp(tcp_server.port, b"x" * 100)
    tcp_server.wait_for_records(1)
    with pytest.raises(TimeoutError, match="expected 2 flow records, got 1"):
        tcp_server.wait_for_records(2, timeout=0.2)


def test_finished_workers_are_dropped_at_each_accept(tcp_server):
    for i in range(1, 201):
        send_tcp(tcp_server.port, b"w" * 10)
        tcp_server.wait_for_records(i)
    assert len(tcp_server._workers) <= 2


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_sigint_ends_the_cli_server_with_its_report(tmp_path):
    port = _free_port()
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "teebench.cli", "--server", "--port", str(port),
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    lines = queue.Queue()
    reader = threading.Thread(
        target=lambda: [lines.put(line) for line in proc.stdout], daemon=True)
    reader.start()
    try:
        assert "listening on port" in lines.get(timeout=20)
        send_tcp(port, b"s" * 4096)
        assert "4096 B in" in lines.get(timeout=5)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
    report = json.loads(next(tmp_path.glob("server-*.json")).read_text())
    assert [f["bytes_received"] for f in report["flows"]] == [4096]


def test_tcp_receive_wakeups_are_coalesced(tcp_server):
    payload = random.Random(1).randbytes(1024 * KIB)
    send_in_chunks(tcp_server.port, payload)
    record = tcp_server.wait_for_records(1)[0]
    mark = min(TCP_READ_SIZE, tcp_server.cfg.socket_buffer) // 2
    assert record.bytes_received == len(payload)
    assert record.payload_sha256 == hashlib.sha256(payload).hexdigest()
    assert record.receive_calls <= len(payload) // mark + 4


def test_tcp_runtime_spans_first_to_last_receive(tcp_server):
    with socket.create_connection(("127.0.0.1", tcp_server.port)) as sock:
        sock.sendall(b"t" * 64)
        time.sleep(0.15)
        sock.sendall(b"t" * 64)
    record = tcp_server.wait_for_records(1)[0]
    assert record.bytes_received == 128
    assert 0.1 <= record.runtime < 0.3


def test_a_small_socket_buffer_does_not_stall_the_flow():
    cfg = ServerConfig(bind="127.0.0.1", port=0, socket_buffer=16 * KIB)
    payload = random.Random(2).randbytes(256 * KIB)
    with BenchmarkServer(cfg) as server:
        send_in_chunks(server.port, payload)
        record = server.wait_for_records(1)[0]
    assert record.bytes_received == len(payload)
    assert record.payload_sha256 == hashlib.sha256(payload).hexdigest()
    assert record.error is None
