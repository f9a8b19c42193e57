"""Command-line entry point: flag parsing, run orchestration and reports.

Unit conventions (they differ on purpose, as in the tools this mimics):
bit rates take decimal suffixes (k = 10^3, M = 10^6, G = 10^9 bits/s),
byte sizes take binary suffixes (K = 1024, M = 1048576 bytes). JSON is
the canonical report format; KV bench reports also get a flat CSV
projection for plotting.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .boundary import BoundaryError
from .core import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_DURATION,
    DEFAULT_PORT,
    DEFAULT_SOCKET_BUFFER,
    MAX_UDP_PAYLOAD,
    ConfigError,
    Execution,
    Mode,
    Protocol,
    RunConfig,
    SharedMode,
    derive_throughput,
    validate_config,
)
from .energy import EnergyReport, TraceFormat, ingest_trace, integrate_energy
from .kvbench import Workload, run_kv_bench
from .runner import run_client
from .server import BenchmarkServer, ServerConfig

SCHEMA_VERSION = 1

_RATE_SUFFIX = {"k": 1e3, "m": 1e6, "g": 1e9}
_SIZE_SUFFIX = {"k": 1024, "m": 1024 * 1024}


class ReportWriteError(OSError):
    """Report file could not be written; the data went to stdout instead."""


def _parse_scaled(text: str, suffixes: dict, what: str, cast=float):
    """A number, times the multiplier its suffix letter names."""
    body = text.strip()
    mult = suffixes.get(body[-1:].lower())
    try:
        return cast(float(body[:-1]) * mult if mult else float(body))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None


def parse_bitrate(text: str) -> float:
    """Decimal bit rate: plain number or k/M/G suffix (10^3/10^6/10^9)."""
    return _parse_scaled(text, _RATE_SUFFIX, "bit rate")


def parse_size(text: str) -> int:
    """Binary byte size: plain number or K/M suffix (1024/1048576)."""
    return _parse_scaled(text, _SIZE_SUFFIX, "size", lambda n: int(round(n)))


@dataclass(frozen=True)
class ParsedInvocation:
    role: str                       # client | server | kvbench | energy
    config: RunConfig
    kv_workload: Workload | None
    out_dir: str | None
    json_stdout: bool
    power_trace: str | None
    power_format: TraceFormat
    power_offset: float


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teebench",
        description="Network throughput, boundary-crossing overhead and "
                    "energy benchmarks with an emulated TEE I/O boundary.",
    )
    role = parser.add_argument_group("role")
    role.add_argument("--server", action="store_true",
                      help="run the measuring sink")
    role.add_argument("--client", metavar="HOST",
                      help="run the traffic client against HOST")
    role.add_argument("--kv", metavar="WORKLOAD",
                      choices=[w.value for w in Workload],
                      help="run the KV bench (put|get|del|mix20|mix50)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--bitrate", type=parse_bitrate, metavar="BITS/S",
                        help="constant-rate mode; decimal k/M/G suffixes")
    parser.add_argument("--bytes", type=parse_size, metavar="N", dest="total_bytes",
                        help="fixed-bytes mode; binary K/M suffixes")
    parser.add_argument("--time", type=float, metavar="SECONDS", dest="duration",
                        help=f"run duration (default {DEFAULT_DURATION:g})")
    parser.add_argument("--length", type=parse_size, default=DEFAULT_CHUNK_SIZE,
                        metavar="BYTES", help="dummy chunk per transmit call")
    parser.add_argument("--window", type=parse_size, default=DEFAULT_SOCKET_BUFFER,
                        metavar="BYTES", help="requested socket buffer size")
    parser.add_argument("--udp", action="store_true")
    parser.add_argument("--exec", choices=["direct", "boundary"], default="direct",
                        dest="execution")
    parser.add_argument("--shared-mem", choices=[m.value for m in SharedMode],
                        default="whole")
    parser.add_argument("--switch-cost", type=float, default=0.0,
                        metavar="SECONDS", help="injected delay per world crossing")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--power-trace", metavar="FILE")
    parser.add_argument("--power-format", choices=[f.value for f in TraceFormat],
                        default="pdu")
    parser.add_argument("--power-offset", type=float, default=0.0,
                        metavar="SECONDS", help="meter clock minus host clock")
    parser.add_argument("--out", metavar="DIR", help="report output directory")
    parser.add_argument("--json", action="store_true", dest="json_stdout",
                        help="print the full JSON report to stdout")
    return parser


def parse_args(argv) -> ParsedInvocation:
    """Parse flags into a validated invocation; exits with usage on errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    roles = [name for name, active in
             (("server", ns.server), ("client", ns.client is not None),
              ("kvbench", ns.kv is not None)) if active]
    if len(roles) > 1:
        parser.error(f"conflicting roles: {' and '.join(roles)}")
    if not roles:
        if ns.power_trace is not None:
            roles = ["energy"]
        else:
            parser.error("pick a role: --server, --client, --kv or --power-trace")
    role = roles[0]
    if ns.power_trace is not None and role not in ("client", "energy"):
        parser.error("--power-trace applies to client runs or standalone use")
    if not math.isfinite(ns.power_offset):
        parser.error("--power-offset must be finite")

    if ns.bitrate is not None and ns.total_bytes is not None:
        parser.error("conflicting stop conditions: --bitrate and --bytes")
    if ns.total_bytes is not None and ns.duration is not None:
        parser.error("conflicting stop conditions: --bytes and --time")
    if ns.bitrate is not None:
        mode = Mode.CONSTANT_RATE
    elif ns.total_bytes is not None:
        mode = Mode.FIXED_BYTES
    else:
        mode = Mode.FIXED_DURATION

    # the server does not use the chunk (the sink sizes its own
    # receives), so a UDP server's clamp only lets its config validate
    length = ns.length
    if role == "server" and ns.udp:
        length = min(length, MAX_UDP_PAYLOAD)

    cfg = RunConfig(
        mode=mode,
        bitrate=ns.bitrate,
        total_bytes=ns.total_bytes,
        duration=ns.duration if ns.duration is not None else DEFAULT_DURATION,
        chunk_size=length,
        socket_buffer_size=ns.window,
        protocol=Protocol.UDP if ns.udp else Protocol.TCP,
        host=ns.client if ns.client is not None else "127.0.0.1",
        port=ns.port,
        execution=Execution(ns.execution),
        shared_mode=SharedMode(ns.shared_mem),
        switch_cost=ns.switch_cost,
        rng_seed=ns.seed,
    )
    try:
        cfg = validate_config(cfg)
    except ConfigError as exc:
        parser.error(str(exc))

    return ParsedInvocation(
        role=role,
        config=cfg,
        kv_workload=Workload(ns.kv) if ns.kv else None,
        out_dir=ns.out,
        json_stdout=ns.json_stdout,
        power_trace=ns.power_trace,
        power_format=TraceFormat(ns.power_format),
        power_offset=ns.power_offset,
    )


def render_args(inv: ParsedInvocation) -> list[str]:
    """Inverse of parse_args: flags reproducing this invocation exactly."""
    cfg = inv.config
    argv: list[str] = []
    if inv.role == "server":
        argv.append("--server")
    elif inv.role == "client":
        argv.extend(["--client", cfg.host])
    elif inv.role == "kvbench":
        argv.extend(["--kv", inv.kv_workload.value])
    argv.extend(["--port", str(cfg.port)])
    if cfg.mode is Mode.CONSTANT_RATE:
        argv.extend(["--bitrate", repr(cfg.bitrate), "--time", repr(cfg.duration)])
    elif cfg.mode is Mode.FIXED_BYTES:
        argv.extend(["--bytes", str(cfg.total_bytes)])
    else:
        argv.extend(["--time", repr(cfg.duration)])
    argv.extend(["--length", str(cfg.chunk_size)])
    argv.extend(["--window", str(cfg.socket_buffer_size)])
    if cfg.protocol is Protocol.UDP:
        argv.append("--udp")
    argv.extend(["--exec", cfg.execution.value])
    argv.extend(["--shared-mem", cfg.shared_mode.value])
    argv.extend(["--switch-cost", repr(cfg.switch_cost)])
    argv.extend(["--seed", str(cfg.rng_seed)])
    if inv.power_trace is not None:
        argv.extend(["--power-trace", inv.power_trace])
        argv.extend(["--power-format", inv.power_format.value])
        argv.extend(["--power-offset", repr(inv.power_offset)])
    if inv.out_dir is not None:
        argv.extend(["--out", inv.out_dir])
    if inv.json_stdout:
        argv.append("--json")
    return argv


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


def _report_path(out_dir: str, role: str, unix_start: float) -> Path:
    base = Path(out_dir)
    stem = f"{role}-{int(unix_start)}"
    path = base / f"{stem}.json"
    suffix = 0
    while path.exists():
        suffix += 1
        path = base / f"{stem}-{suffix}.json"
    return path


def emit_report(payload: dict, inv: ParsedInvocation,
                stream=None) -> Path | None:
    """Write the canonical JSON report (and CSV projection for series).

    On an unwritable path the report is printed to stdout so the data is
    never lost, then ReportWriteError is raised.
    """
    stream = stream if stream is not None else sys.stdout
    text = json.dumps(payload, indent=2, sort_keys=True)
    if inv.json_stdout:
        print(text, file=stream)
    if inv.out_dir is None:
        return None
    try:
        path = _report_path(inv.out_dir, payload["role"], payload["started_at"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        if "series" in payload:
            _write_series_csv(path.with_suffix(".csv"), payload["series"])
    except OSError as exc:
        if not inv.json_stdout:  # make sure the data reached stdout once
            print(text, file=stream)
        raise ReportWriteError(f"cannot write report under {inv.out_dir}: {exc}")
    return path


def _write_series_csv(path: Path, series: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "workload", "execution", "shared_mode", "target_rate",
            "achieved_rate", "mean_latency", "p50", "p95", "p99",
            "ops", "misses", "underrun",
        ])
        for record in series["records"]:
            writer.writerow([
                series["workload"], series["execution"], series["shared_mode"],
                record["target_rate"], record["achieved_rate"],
                record["latency"]["mean"], record["latency"]["p50"],
                record["latency"]["p95"], record["latency"]["p99"],
                record["ops"], record["misses"], record["underrun"],
            ])


def _trace_energy(inv: ParsedInvocation, t_start=None, t_end=None) -> EnergyReport:
    """Energy from the invocation's power trace over [t_start, t_end] on
    the host clock; the window defaults to the trace's own span."""
    samples = ingest_trace(inv.power_trace, inv.power_format)
    return integrate_energy(
        samples,
        samples[0].timestamp if t_start is None else t_start + inv.power_offset,
        samples[-1].timestamp if t_end is None else t_end + inv.power_offset,
    )


def _attach_energy(payload: dict, inv: ParsedInvocation) -> None:
    try:
        report = _trace_energy(inv, payload["started_at"], payload["ended_at"])
        payload["energy"] = report.to_dict()
    except (OSError, ValueError) as exc:
        print(f"energy integration failed: {exc}", file=sys.stderr)
        payload["energy"] = {"error": str(exc)}


# --------------------------------------------------------------------------
# roles
# --------------------------------------------------------------------------


def _run_client_role(inv: ParsedInvocation, stream) -> dict:
    result = run_client(inv.config)
    metrics = result.transfer
    block = {"transfer_metrics": metrics.to_dict()}
    if metrics.total_runtime > 0:
        block["throughput_bps"] = derive_throughput(metrics)
    if result.boundary_stats is not None:
        block["boundary_stats"] = result.boundary_stats.to_dict()

    mbit = block.get("throughput_bps", 0.0) / 1e6
    line = (f"sent {metrics.bytes_transferred} B in {metrics.total_runtime:.3f} s "
            f"({mbit:.2f} Mbit/s, {metrics.transmit_calls} calls)")
    if metrics.error:
        line += f" [error: {metrics.error}]"
    if result.boundary_stats is not None:
        line += (f"; crossings {result.boundary_stats.crossings}, "
                 f"injected {result.boundary_stats.injected_cost_total:.3f} s")
    print(line, file=stream)
    return block


def _run_server_role(inv: ParsedInvocation, stream, flow_limit=None) -> dict:
    cfg = inv.config
    server_cfg = ServerConfig(
        port=cfg.port,
        protocol=cfg.protocol,
        socket_buffer=cfg.socket_buffer_size,
    )
    server = BenchmarkServer(server_cfg).start()
    print(f"listening on port {server.port} ({cfg.protocol.value})", file=stream)
    seen = 0
    try:
        while flow_limit is None or seen < flow_limit:
            record = server.wait_for_records(seen + 1, timeout=None)[seen]
            seen += 1
            rate = (record.bytes_received * 8 / record.runtime / 1e6
                    if record.runtime > 0 else 0.0)
            print(f"[{record.peer}] {record.bytes_received} B in "
                  f"{record.runtime:.3f} s ({rate:.2f} Mbit/s)", file=stream)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return {"flows": [m.to_dict() for m in server.collected()]}


def _run_kvbench_role(inv: ParsedInvocation, stream) -> dict:
    cfg = inv.config
    series = run_kv_bench(
        inv.kv_workload,
        shared_mode=cfg.shared_mode,
        execution=cfg.execution,
        seed=cfg.rng_seed,
        switch_cost=cfg.switch_cost,
    )
    for record in series.records:
        print(f"rate {record.target_rate:>8.0f} ops/s: achieved "
              f"{record.achieved_rate:>10.1f}, mean latency "
              f"{record.mean_latency * 1e6:.1f} us", file=stream)
    return {"series": series.to_dict()}


def _run_energy_role(inv: ParsedInvocation, stream) -> dict:
    report = _trace_energy(inv)
    span = report.t_end - report.t_start
    print(f"{report.energy:.3f} J over {span:.1f} s "
          f"(mean {report.mean_power:.2f} W, {report.sample_count} samples)",
          file=stream)
    return {"energy": report.to_dict(),
            "trace": {"path": inv.power_trace, "format": inv.power_format.value}}


def main(argv=None, stream=None, flow_limit=None) -> int:
    inv = parse_args(argv if argv is not None else sys.argv[1:])
    stream = stream if stream is not None else sys.stdout
    started = time.time()
    try:
        if inv.role == "client":
            block = _run_client_role(inv, stream)
        elif inv.role == "server":
            block = _run_server_role(inv, stream, flow_limit)
        elif inv.role == "kvbench":
            block = _run_kvbench_role(inv, stream)
        else:
            block = _run_energy_role(inv, stream)
    except (OSError, ValueError, RuntimeError, BoundaryError) as exc:
        print(f"teebench: {exc}", file=sys.stderr)
        return 1
    payload = {
        "schema": SCHEMA_VERSION,
        "role": inv.role,
        "config": inv.config.to_dict(),
        "argv": render_args(inv),
        "started_at": started,
        "ended_at": time.time(),
        **block,
    }
    if inv.role == "client" and inv.power_trace is not None:
        _attach_energy(payload, inv)
    try:
        emit_report(payload, inv, stream)
    except ReportWriteError as exc:
        print(f"teebench: {exc}", file=sys.stderr)
        return 1
    if inv.role == "client" and payload["transfer_metrics"].get("error"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
