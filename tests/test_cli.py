import io
import json
import random
import socket
import threading
import time

import pytest

from teebench.cli import (
    ParsedInvocation,
    emit_report,
    main,
    parse_args,
    parse_bitrate,
    parse_size,
    render_args,
)
from teebench.core import Execution, Mode, Protocol, SharedMode
from teebench.energy import TraceFormat
from teebench.kvbench import Workload


class TestSuffixes:
    def test_bitrate_suffixes_are_decimal(self):
        assert parse_bitrate("1M") == 1e6
        assert parse_bitrate("500k") == 5e5
        assert parse_bitrate("2G") == 2e9
        assert parse_bitrate("1048576") == 1048576.0

    def test_size_suffixes_are_binary(self):
        assert parse_size("128K") == 131072
        assert parse_size("1M") == 1048576
        assert parse_size("10m") == 10 * 1048576
        assert parse_size("4096") == 4096

    def test_invalid_values(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_bitrate("fast")
        for text in ("big", "inf", "1e400", "infK"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_size(text)


class TestParse:
    def test_client_with_bitrate_is_constant_rate(self):
        inv = parse_args(["--client", "h", "--bitrate", "1M", "--time", "10"])
        assert inv.role == "client"
        assert inv.config.mode is Mode.CONSTANT_RATE
        assert inv.config.bitrate == 1e6
        assert inv.config.duration == 10.0
        assert inv.config.host == "h"

    def test_server_with_defaults(self):
        inv = parse_args(["--server"])
        assert inv.role == "server"
        assert inv.config.port == 5201
        assert inv.config.chunk_size == 131072
        assert inv.config.socket_buffer_size == 131072
        assert inv.config.protocol is Protocol.TCP

    def test_bytes_and_time_conflict(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--client", "h", "--bytes", "1M", "--time", "5"])
        assert exc.value.code == 2

    def test_bitrate_and_bytes_conflict(self):
        with pytest.raises(SystemExit):
            parse_args(["--client", "h", "--bitrate", "1M", "--bytes", "1M"])

    def test_conflicting_roles(self):
        with pytest.raises(SystemExit):
            parse_args(["--server", "--client", "h"])
        with pytest.raises(SystemExit):
            parse_args(["--client", "h", "--kv", "put"])

    def test_no_role(self):
        with pytest.raises(SystemExit):
            parse_args(["--port", "9999"])

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            parse_args(["--server", "--what-is-this"])

    def test_kv_role(self):
        inv = parse_args(["--kv", "mix20", "--exec", "boundary",
                          "--shared-mem", "temporary", "--switch-cost", "0.001"])
        assert inv.role == "kvbench"
        assert inv.kv_workload is Workload.MIX20
        assert inv.config.execution is Execution.BOUNDARY
        assert inv.config.shared_mode is SharedMode.TEMPORARY
        assert inv.config.switch_cost == 0.001

    def test_energy_role(self):
        inv = parse_args(["--power-trace", "meter.csv",
                          "--power-format", "powerspy",
                          "--power-offset", "1.5"])
        assert inv.role == "energy"
        assert inv.power_format is TraceFormat.POWERSPY_CSV
        assert inv.power_offset == 1.5

    def test_power_trace_rejected_for_server_and_kv(self):
        with pytest.raises(SystemExit):
            parse_args(["--server", "--power-trace", "m.csv"])
        with pytest.raises(SystemExit):
            parse_args(["--kv", "put", "--power-trace", "m.csv"])

    def test_invalid_config_value_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            parse_args(["--client", "h", "--port", "70000"])

    @pytest.mark.parametrize("argv, error", [
        (["--kv", "put", "--exec", "boundary", "--switch-cost", "nan"], "finite"),
        (["--kv", "put", "--switch-cost", "inf"], "finite"),
        (["--client", "h", "--time", "nan"], "finite"),
        (["--client", "h", "--bitrate", "inf"], "finite"),
        (["--power-trace", "m.csv", "--power-offset", "nan"], "finite"),
        (["--power-trace", "m.csv", "--power-offset=-inf"], "finite"),
        (["--client", "h", "--length", "inf"], "invalid size 'inf'"),
    ], ids=["switch-cost-nan", "switch-cost-inf", "time-nan", "bitrate-inf",
            "power-offset-nan", "power-offset-minus-inf", "length-inf"])
    def test_non_finite_setting_is_a_usage_error(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err

    def test_udp_server_caps_its_chunk_at_one_datagram(self):
        inv = parse_args(["--server", "--udp"])
        assert inv.config.chunk_size == 65507
        inv = parse_args(["--server", "--udp", "--length", "8K"])
        assert inv.config.chunk_size == 8192

    def test_udp_client_with_oversized_chunk_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            parse_args(["--client", "h", "--udp"])  # default 128 KiB chunk


def random_invocation(rng: random.Random) -> ParsedInvocation:
    role = rng.choice(["client", "server", "kvbench", "energy"])
    argv = []
    if role == "client":
        argv += ["--client", rng.choice(["peer", "10.0.0.7", "host.example"])]
        stop = rng.choice(["rate", "bytes", "time"])
        if stop == "rate":
            argv += ["--bitrate", str(rng.choice([1e6, 2.5e6, 4e8])),
                     "--time", str(rng.choice([1.0, 10.0, 30.5]))]
        elif stop == "bytes":
            argv += ["--bytes", str(rng.randrange(1, 2**30))]
        else:
            argv += ["--time", str(rng.choice([0.5, 10.0, 60.0]))]
    elif role == "server":
        argv += ["--server"]
    elif role == "kvbench":
        argv += ["--kv", rng.choice([w.value for w in Workload])]
    else:
        argv += ["--power-trace", "trace.csv",
                 "--power-format", rng.choice(["pdu", "powerspy"]),
                 "--power-offset", str(rng.choice([0.0, -2.5, 3.25]))]
    argv += ["--port", str(rng.randrange(1, 65536))]
    if rng.random() < 0.5 and role == "client":
        argv += ["--udp", "--length", str(rng.randrange(1, 65508))]
    else:
        argv += ["--length", str(rng.randrange(1, 1048577))]
    argv += ["--window", str(rng.randrange(1, 2**20))]
    argv += ["--exec", rng.choice(["direct", "boundary"])]
    argv += ["--shared-mem", rng.choice([m.value for m in SharedMode])]
    argv += ["--switch-cost", str(rng.choice([0.0, 1e-5, 0.001]))]
    argv += ["--seed", str(rng.randrange(0, 2**64))]
    if rng.random() < 0.3:
        argv += ["--out", "/tmp/somewhere"]
    if rng.random() < 0.3:
        argv += ["--json"]
    try:
        return parse_args(argv)
    except SystemExit:
        # boundary execution rejects chunks over 1 MiB etc.; skip those draws
        return None


def test_parse_render_round_trip_over_500_random_invocations():
    rng = random.Random(20190903)
    checked = 0
    while checked < 500:
        inv = random_invocation(rng)
        if inv is None:
            continue
        again = parse_args(render_args(inv))
        assert again == inv
        checked += 1


class TestEmitReport:
    def payload(self, role="client", started=1700000000.25):
        return {"schema": 1, "role": role, "started_at": started,
                "ended_at": started + 1, "config": {}, "argv": []}

    def inv(self, out_dir, json_stdout=False):
        return parse_args(
            ["--client", "h", "--time", "1"]
            + (["--out", out_dir] if out_dir else [])
            + (["--json"] if json_stdout else [])
        )

    def test_filename_pattern(self, tmp_path):
        path = emit_report(self.payload(), self.inv(str(tmp_path)))
        assert path.name == "client-1700000000.json"
        assert json.loads(path.read_text())["schema"] == 1

    def test_same_second_runs_get_sequence_suffixes(self, tmp_path):
        inv = self.inv(str(tmp_path))
        first = emit_report(self.payload(), inv)
        second = emit_report(self.payload(), inv)
        third = emit_report(self.payload(), inv)
        assert first.name == "client-1700000000.json"
        assert second.name == "client-1700000000-1.json"
        assert third.name == "client-1700000000-2.json"

    def test_unwritable_path_still_prints_the_data(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        inv = self.inv(str(blocker / "sub"))
        out = io.StringIO()
        from teebench.cli import ReportWriteError

        with pytest.raises(ReportWriteError):
            emit_report(self.payload(), inv, stream=out)
        assert json.loads(out.getvalue())["role"] == "client"

    def test_json_flag_prints_to_stdout(self, tmp_path):
        out = io.StringIO()
        emit_report(self.payload(), self.inv(str(tmp_path), json_stdout=True),
                    stream=out)
        assert json.loads(out.getvalue())["schema"] == 1

    def test_kv_series_also_gets_a_csv(self, tmp_path):
        payload = self.payload(role="kvbench")
        payload["series"] = {
            "workload": "put", "execution": "direct", "shared_mode": "whole",
            "records": [{
                "target_rate": 1.0, "achieved_rate": 1.0,
                "latency": {"mean": 1e-6, "p50": 1e-6, "p95": 2e-6, "p99": 3e-6},
                "ops": 4, "misses": 0, "underrun": False,
            }],
        }
        inv = parse_args(["--kv", "put", "--out", str(tmp_path)])
        path = emit_report(payload, inv)
        csv_path = path.with_suffix(".csv")
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[0].startswith("workload,")


def free_port(kind=socket.SOCK_STREAM) -> int:
    probe = socket.socket(socket.AF_INET, kind)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def feed_one_flow(port: int) -> threading.Thread:
    """A thread that sends one 4 KiB TCP flow to ``port`` once it listens."""
    def feed():
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(("127.0.0.1", port))
                sock.sendall(b"f" * 4096)
                sock.close()
                return
            except OSError:
                time.sleep(0.05)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    return feeder


def use_tiny_kv_bench(monkeypatch) -> None:
    """Make the CLI's KV bench run a single 32768 ops/s rate."""
    import teebench.cli as cli_mod
    from teebench.kvbench import run_kv_bench

    def tiny_bench(workload, shared_mode, execution, seed, switch_cost):
        return run_kv_bench(workload, shared_mode=shared_mode,
                            execution=execution, seed=seed,
                            switch_cost=switch_cost, rates=(32768,))

    monkeypatch.setattr(cli_mod, "run_kv_bench", tiny_bench)


class TestMainRoles:
    @pytest.mark.parametrize("role", ["client", "server", "kvbench", "energy"])
    def test_every_role_report_has_the_same_frame(self, role, request, tmp_path,
                                                  monkeypatch):
        feeder = None
        if role == "client":
            port = request.getfixturevalue("tcp_server").port
            argv = ["--client", "127.0.0.1", "--port", str(port), "--bytes", "16K"]
        elif role == "server":
            port = free_port()
            feeder = feed_one_flow(port)
            argv = ["--server", "--port", str(port)]
        elif role == "kvbench":
            use_tiny_kv_bench(monkeypatch)
            argv = ["--kv", "put"]
        else:
            trace = tmp_path / "meter.csv"
            trace.write_text("0,5\n1,5\n")
            argv = ["--power-trace", str(trace)]
        rc = main(argv + ["--out", str(tmp_path)], stream=io.StringIO(),
                  flow_limit=1)
        if feeder is not None:
            feeder.join()
        assert rc == 0
        report = json.loads(next(tmp_path.glob(f"{role}-*.json")).read_text())
        assert report["schema"] == 1
        assert report["role"] == role
        again = parse_args(report["argv"])
        assert again.role == role
        assert again.config.to_dict() == report["config"]
        assert report["started_at"] <= report["ended_at"]

    def test_client_run_end_to_end(self, tcp_server, tmp_path, capsys):
        rc = main(["--client", "127.0.0.1", "--port", str(tcp_server.port),
                   "--bytes", "256K", "--length", "32K",
                   "--out", str(tmp_path), "--json"])
        assert rc == 0
        stdout = capsys.readouterr().out
        report = json.loads(stdout[stdout.index("{"):stdout.rindex("}") + 1])
        assert report["transfer_metrics"]["bytes_transferred"] == 262144
        assert report["throughput_bps"] > 0
        files = list(tmp_path.glob("client-*.json"))
        assert len(files) == 1

    def test_boundary_client_report_carries_crossings(self, tcp_server, tmp_path):
        rc = main(["--client", "127.0.0.1", "--port", str(tcp_server.port),
                   "--bytes", "128K", "--exec", "boundary",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(next(tmp_path.glob("client-*.json")).read_text())
        stats = report["boundary_stats"]
        assert stats["crossings"] > 0 and stats["crossings"] % 2 == 0
        assert "injected_cost_total" in stats

    def test_client_against_dead_port_fails(self, tmp_path):
        rc = main(["--client", "127.0.0.1", "--port", str(free_port()),
                   "--bytes", "1K", "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads(next(tmp_path.glob("client-*.json")).read_text())
        assert report["transfer_metrics"]["error"]

    def test_energy_role_reports_joules(self, tmp_path, capsys):
        trace = tmp_path / "meter.csv"
        trace.write_text("".join(f"{t},5\n" for t in range(11)))
        rc = main(["--power-trace", str(trace), "--out", str(tmp_path), "--json"])
        assert rc == 0
        stdout = capsys.readouterr().out
        report = json.loads(stdout[stdout.index("{"):stdout.rindex("}") + 1])
        assert report["energy"]["energy_joules"] == pytest.approx(50.0)

    @pytest.mark.parametrize("rows", ["0,5\nnan,5\n2,5\n", "0,5\n1,nan\n",
                                      "0,5\ninf,5\n"],
                             ids=["nan-timestamp", "nan-power", "inf-timestamp"])
    def test_energy_role_refuses_a_non_finite_row(self, tmp_path, capsys, rows):
        trace = tmp_path / "meter.csv"
        trace.write_text(rows)
        rc = main(["--power-trace", str(trace), "--out", str(tmp_path)])
        assert rc == 1
        assert "line 2: non-finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("energy-*.json"))

    def test_client_with_power_trace_embeds_energy(self, tcp_server, tmp_path):
        now = time.time()
        trace = tmp_path / "meter.csv"
        trace.write_text("".join(f"{now - 5 + t},4\n" for t in range(60)))
        rc = main(["--client", "127.0.0.1", "--port", str(tcp_server.port),
                   "--time", "0.5", "--out", str(tmp_path),
                   "--power-trace", str(trace)])
        assert rc == 0
        report = json.loads(next(tmp_path.glob("client-*.json")).read_text())
        assert report["energy"]["energy_joules"] == pytest.approx(
            4 * 0.5, rel=0.2)

    def test_client_with_a_power_trace_not_covering_the_run_still_reports(
            self, tcp_server, tmp_path, capsys):
        trace = tmp_path / "meter.csv"
        trace.write_text("0,4\n1,4\n")  # 1970: long before the run
        rc = main(["--client", "127.0.0.1", "--port", str(tcp_server.port),
                   "--bytes", "16K", "--out", str(tmp_path),
                   "--power-trace", str(trace)])
        assert rc == 0
        report = json.loads(next(tmp_path.glob("client-*.json")).read_text())
        assert "outside trace span" in report["energy"]["error"]
        assert "energy integration failed: window" in capsys.readouterr().err

    def test_an_out_that_is_a_file_is_exit_1_with_the_report_on_stdout(
            self, tcp_server, tmp_path, capsys):
        blocker = tmp_path / "report"
        blocker.write_text("in the way")
        rc = main(["--client", "127.0.0.1", "--port", str(tcp_server.port),
                   "--bytes", "16K", "--out", str(blocker)])
        assert rc == 1
        captured = capsys.readouterr()
        stdout = captured.out
        report = json.loads(stdout[stdout.index("{"):stdout.rindex("}") + 1])
        assert report["transfer_metrics"]["bytes_transferred"] == 16 * 1024
        assert f"teebench: cannot write report under {blocker}" in captured.err
        assert blocker.read_text() == "in the way"

    def test_udp_server_reads_datagrams_longer_than_its_length_whole(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("teebench.server.UDP_IDLE_TIMEOUT", 0.3)
        port = free_port(socket.SOCK_DGRAM)
        out = io.StringIO()
        result = {}
        server = threading.Thread(target=lambda: result.update(rc=main(
            ["--server", "--udp", "--length", "1K", "--port", str(port),
             "--out", str(tmp_path)], stream=out, flow_limit=1)))
        server.start()
        deadline = time.monotonic() + 10
        while "listening on port" not in out.getvalue():
            assert time.monotonic() < deadline and server.is_alive()
            time.sleep(0.01)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for _ in range(3):
                sock.sendto(b"d" * 4096, ("127.0.0.1", port))
        server.join(timeout=10)
        assert result == {"rc": 0}
        report = json.loads(next(tmp_path.glob("server-*.json")).read_text())
        [flow] = report["flows"]
        assert flow["bytes_received"] == 3 * 4096
        assert flow["receive_calls"] == 3

    def test_server_role_with_flow_limit(self, tmp_path):
        port = free_port()
        feeder = feed_one_flow(port)
        out = io.StringIO()
        rc = main(["--server", "--port", str(port), "--out", str(tmp_path)],
                  stream=out, flow_limit=1)
        feeder.join()
        assert rc == 0
        report = json.loads(next(tmp_path.glob("server-*.json")).read_text())
        assert report["flows"][0]["bytes_received"] == 4096

    def test_boundary_failure_is_exit_1_not_a_traceback(self, tmp_path,
                                                         monkeypatch, capsys):
        import teebench.cli as cli_mod
        from teebench.boundary.protocol import TeeResult
        from teebench.runner import RunFailure

        def fail(config):
            raise RunFailure(TeeResult.GENERIC)

        monkeypatch.setattr(cli_mod, "run_client", fail)
        rc = main(["--client", "127.0.0.1", "--bytes", "1K",
                   "--exec", "boundary", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "teebench: trusted run failed with GENERIC\n")

    def test_kvbench_role_writes_series_and_csv(self, tmp_path, monkeypatch):
        use_tiny_kv_bench(monkeypatch)
        rc = main(["--kv", "mix50", "--out", str(tmp_path)])
        assert rc == 0
        report_path = next(tmp_path.glob("kvbench-*.json"))
        report = json.loads(report_path.read_text())
        assert report["series"]["records"][0]["ops"] == 256
        assert report_path.with_suffix(".csv").exists()

    def test_report_is_self_describing(self, tcp_server, tmp_path):
        argv = ["--client", "127.0.0.1", "--port", str(tcp_server.port),
                "--bytes", "64K", "--length", "16K", "--seed", "77"]
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(next(tmp_path.glob("client-*.json")).read_text())
        again = parse_args(report["argv"])
        assert again.config.to_dict() == report["config"]