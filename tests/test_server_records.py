"""The sink's record path: flow accounting, the record list and its
waiters, worker bookkeeping and the CLI server loop that waits on it."""

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def send_tcp(port, data):
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(data)


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
    threading.Thread(target=lambda: [lines.put(line) for line in proc.stdout],
                     daemon=True).start()
    try:
        assert "listening on port" in lines.get(timeout=20)
        send_tcp(port, b"s" * 4096)
        assert "4096 B in" in lines.get(timeout=5)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        proc.wait()
    report = json.loads(next(tmp_path.glob("server-*.json")).read_text())
    assert [f["bytes_received"] for f in report["flows"]] == [4096]
