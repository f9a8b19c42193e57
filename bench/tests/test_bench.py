"""Tests of the benchmark itself: input determinism, the correctness gates
and a short smoke run of every workload.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import benchta  # noqa: E402,F401  registers the bench trusted application
import run  # noqa: E402
import workloads  # noqa: E402
from teebench.boundary import BoundaryStats, TeeResult  # noqa: E402
from teebench.core import Protocol, ServerMetrics, TransferMetrics  # noqa: E402
from teebench.runner import RunFailure  # noqa: E402
from teebench.server import BenchmarkServer, ServerConfig  # noqa: E402
from teebench.traffic import fill_dummy_buffer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_gated_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_equal_seeds_give_equal_inputs():
    same = [fill_dummy_buffer(1024, workloads.payload_seed(11))
            for _ in range(2)]
    assert same[0] == same[1]
    assert same[0] != fill_dummy_buffer(1024, workloads.payload_seed(12))


# -- gates ------------------------------------------------------------------

PAYLOAD = fill_dummy_buffer(1024, 5)
SHA = workloads.repeated_digest(PAYLOAD, 4)


def _transfer(**kw):
    base = dict(transmit_calls=4, bytes_transferred=4096, time_in_transmit=0.1,
                total_runtime=0.2, payload_sha256=SHA)
    base.update(kw)
    return TransferMetrics(**base)


def _record(**kw):
    base = dict(peer="127.0.0.1:1", protocol=Protocol.TCP, bytes_received=4096,
                receive_calls=4, runtime=0.2, payload_sha256=SHA)
    base.update(kw)
    return ServerMetrics(**base)


def _stats(crossings=2 * (4 + 6)):
    return BoundaryStats(crossings=crossings, rpc_count=7)


def test_relay_gate_accepts_a_clean_run():
    assert workloads.relay_gate(4096, SHA, _transfer(), _record(), _stats()) == []


@pytest.mark.parametrize("transfer, record, stats, word", [
    (_transfer(), _record(bytes_received=4095), _stats(), "bytes"),
    (_transfer(bytes_transferred=4000), _record(), _stats(), "bytes"),
    (_transfer(), _record(payload_sha256="0" * 64), _stats(), "SHA-256"),
    (_transfer(payload_sha256="0" * 64), _record(payload_sha256="0" * 64),
     _stats(), "SHA-256"),
    (_transfer(), _record(), _stats(crossings=2 * (4 + 6) + 2), "crossings"),
    (_transfer(error="transmit failed"), _record(), _stats(), "error"),
])
def test_relay_gate_flags_corruption(transfer, record, stats, word):
    reasons = workloads.relay_gate(4096, SHA, transfer, record, stats)
    assert any(word in r for r in reasons), reasons


def test_sink_and_crossing_gates():
    assert workloads.sink_gate(4096, SHA, _record()) == []
    assert workloads.sink_gate(4097, SHA, _record())
    assert workloads.sink_gate(4096, "0" * 64, _record())
    stats = BoundaryStats(crossings=2 * (10 + 3) + 4, rpc_count=3)
    assert workloads.crossing_gate(stats, 10, 3) == []
    assert workloads.crossing_gate(stats, 11, 3)
    assert workloads.crossing_gate(stats, 10, 2)


def test_a_failed_gate_fails_every_op_of_its_unit():
    tally = workloads.Tally()
    tally.ops(10, 0, (), "clean")
    tally.ops(7, 1, ["bytes differ"], "corrupt")
    assert (tally.attempted, tally.failed) == (17, 7)
    assert "bytes differ" in tally.failures[0]


def test_corrupted_relay_result_is_counted_failed(monkeypatch):
    """A run whose client digest is tampered with still reports, marked
    failed, instead of being dropped."""
    real = workloads.runner.run_client

    def tampered(cfg, **kw):
        result = real(cfg, **kw)
        transfer = dataclasses.replace(result.transfer, payload_sha256="0" * 64)
        return dataclasses.replace(result, transfer=transfer)

    monkeypatch.setattr(workloads.runner, "run_client", tampered)
    tally = workloads.Tally()
    with BenchmarkServer(ServerConfig(bind="127.0.0.1", port=0)) as sink:
        workloads.relay_round(workloads.WORKLOADS["relay-1k"], 1, sink, tally,
                              scale=0.01)
    chunks = int(workloads.WORKLOADS["relay-1k"].closed_bytes * 0.01) // 1024
    assert tally.failed == 2 * chunks          # boundary and direct transfers
    assert tally.attempted == tally.failed
    assert tally.rounds["slowdown_x"]          # metrics still produced


def _failing_boundary(real):
    def run_client(cfg, **kw):
        if cfg.execution.value == "boundary":
            raise RunFailure(TeeResult.GENERIC)
        return real(cfg, **kw)
    return run_client


def test_a_raising_transfer_is_counted_failed(monkeypatch):
    """A boundary transfer that raises fails its ops; the direct transfer
    and the open loop of the same round still run and report."""
    monkeypatch.setattr(workloads.runner, "run_client",
                        _failing_boundary(workloads.runner.run_client))
    wl = workloads.WORKLOADS["relay-1k"]
    tally = workloads.Tally()
    with BenchmarkServer(ServerConfig(bind="127.0.0.1", port=0)) as sink:
        workloads.relay_round(wl, 1, sink, tally, scale=0.01, open_loop=True)
    chunks = int(wl.closed_bytes * 0.01) // wl.chunk
    assert tally.failed == chunks
    assert tally.attempted > tally.failed
    assert "RunFailure" in tally.failures[0]
    assert tally.rounds["direct_goodput_MBps"] and tally.rounds["open.p50_x"]
    assert not tally.rounds["slowdown_x"]


def test_a_run_whose_transfers_raise_still_prints_its_result(
        monkeypatch, capsys):
    monkeypatch.setattr(workloads.runner, "run_client",
                        _failing_boundary(workloads.runner.run_client))
    assert run.main(["--workload", "relay-1k", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


# -- the command ------------------------------------------------------------


def _run(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        spans = re.search(r"(\d+) trusted-side spans", proc.stdout)
        assert spans and int(spans.group(1)) > 0
        assert "utilisation" in proc.stdout
    else:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0
        assert "provenance" in proc.stdout


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "relay-1k", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
